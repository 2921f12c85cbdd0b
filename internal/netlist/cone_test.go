package netlist

import (
	"testing"

	"repro/internal/logic"
)

// coneCircuit:
//
//	a, b inputs; q = DFF(d); n1 = AND(a, b); d = OR(n1, q);
//	n2 = NOT(q); output n2; orphan = AND(a, a) (dead logic).
func coneCircuit(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("cone")
	a := b.Input("a")
	bb := b.Input("b")
	q := b.FlipFlop("q", b.Signal("d"))
	n1 := b.Gate(logic.And, "n1", a, bb)
	b.Gate(logic.Or, "d", n1, q)
	b.Gate(logic.Not, "n2", q)
	b.Gate(logic.And, "orphan", a, a)
	b.Output("n2")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ids(t *testing.T, c *Circuit, names ...string) []NodeID {
	t.Helper()
	out := make([]NodeID, len(names))
	for i, n := range names {
		id, ok := c.NodeByName(n)
		if !ok {
			t.Fatalf("node %s missing", n)
		}
		out[i] = id
	}
	return out
}

func TestFaninCone(t *testing.T) {
	c := coneCircuit(t)
	d := ids(t, c, "d")[0]
	cone := c.faninCone(d)
	for _, name := range []string{"d", "n1", "a", "b", "q"} {
		if !cone[ids(t, c, name)[0]] {
			t.Errorf("fan-in cone of d should contain %s", name)
		}
	}
	for _, name := range []string{"n2", "orphan"} {
		if cone[ids(t, c, name)[0]] {
			t.Errorf("fan-in cone of d should not contain %s", name)
		}
	}
}

func TestFanoutCone(t *testing.T) {
	c := coneCircuit(t)
	q := ids(t, c, "q")[0]
	cone := c.fanoutCone(q)
	for _, name := range []string{"q", "d", "n2"} {
		if !cone[ids(t, c, name)[0]] {
			t.Errorf("fan-out cone of q should contain %s", name)
		}
	}
	for _, name := range []string{"a", "n1", "orphan"} {
		if cone[ids(t, c, name)[0]] {
			t.Errorf("fan-out cone of q should not contain %s", name)
		}
	}
}

func TestObservableNodes(t *testing.T) {
	c := coneCircuit(t)
	obs := c.ObservableNodes()
	// n2 observes q directly; q's D cone (d, n1, a, b) is observable
	// through the flip-flop.
	for _, name := range []string{"n2", "q", "d", "n1", "a", "b"} {
		if !obs[ids(t, c, name)[0]] {
			t.Errorf("%s should be observable", name)
		}
	}
	if obs[ids(t, c, "orphan")[0]] {
		t.Error("orphan should be unobservable")
	}
}

func TestControllableNodes(t *testing.T) {
	c := coneCircuit(t)
	ctrl := c.ControllableNodes()
	for _, name := range []string{"a", "b", "n1", "d", "q", "n2", "orphan"} {
		if !ctrl[ids(t, c, name)[0]] {
			t.Errorf("%s should be controllable", name)
		}
	}
}

func TestUncontrollableFeedback(t *testing.T) {
	// A pure feedback toggle has no input influence at all.
	b := NewBuilder("fb")
	b.Input("a")
	q := b.FlipFlop("q", b.Signal("d"))
	b.Gate(logic.Not, "d", q)
	b.GateNamed(logic.And, "o", "a", "q")
	b.Output("o")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := c.ControllableNodes()
	if ctrl[ids(t, c, "q")[0]] || ctrl[ids(t, c, "d")[0]] {
		t.Error("pure feedback loop should be uncontrollable")
	}
	if !ctrl[ids(t, c, "o")[0]] {
		t.Error("o is driven by input a and should be controllable")
	}
	depth := c.SequentialDepth()
	if depth[0] != -1 {
		t.Errorf("uncontrollable flip-flop depth = %d, want -1", depth[0])
	}
}

func TestSequentialDepth(t *testing.T) {
	// q0's D sees inputs directly (depth 0); q1's D sees only q0
	// (depth 1); q2's D sees only q1 (depth 2).
	b := NewBuilder("depth")
	a := b.Input("a")
	q0 := b.FlipFlop("q0", b.Signal("d0"))
	q1 := b.FlipFlop("q1", b.Signal("d1"))
	q2 := b.FlipFlop("q2", b.Signal("d2"))
	b.Gate(logic.Buf, "d0", a)
	b.Gate(logic.Not, "d1", q0)
	b.Gate(logic.Not, "d2", q1)
	b.GateNamed(logic.Xor, "o", "q2", "a")
	b.Output("o")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = q0
	_ = q1
	_ = q2
	depth := c.SequentialDepth()
	if depth[0] != 0 || depth[1] != 1 || depth[2] != 2 {
		t.Errorf("depths = %v, want [0 1 2]", depth)
	}
}
