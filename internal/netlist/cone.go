package netlist

// Structural reachability over the sequential (flip-flop) edges, built
// from fan-in and fan-out cones within one time frame: which nodes an
// output can observe, which the inputs can control, and each flip-flop's
// sequential depth. motstats reports all three.

// faninCone returns the set of nodes (as a boolean slice indexed by
// NodeID) on which the value of each root combinationally depends,
// including the roots themselves. Present-state and primary-input nodes
// terminate the traversal.
func (c *Circuit) faninCone(roots ...NodeID) []bool {
	seen := make([]bool, c.NumNodes())
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if d := c.Nodes[n].Driver; d != NoGate {
			for _, in := range c.Gates[d].In {
				if !seen[in] {
					stack = append(stack, in)
				}
			}
		}
	}
	return seen
}

// fanoutCone returns the set of nodes whose value combinationally depends
// on any of the roots, including the roots themselves. The traversal
// stops at flip-flop D inputs (they affect the next frame, not this one).
func (c *Circuit) fanoutCone(roots ...NodeID) []bool {
	seen := make([]bool, c.NumNodes())
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, pin := range c.Nodes[n].Fanouts {
			out := c.Gates[pin.Gate].Out
			if !seen[out] {
				stack = append(stack, out)
			}
		}
	}
	return seen
}

// ObservableNodes returns the set of nodes that can structurally reach a
// primary output, possibly through flip-flops (i.e., in some later time
// frame). A fault on a node outside this set is undetectable by any test
// sequence.
func (c *Circuit) ObservableNodes() []bool {
	// Work backward: start from primary outputs, walk fan-in cones, and
	// cross flip-flops from Q back to D until a fixpoint.
	obs := make([]bool, c.NumNodes())
	frontier := append([]NodeID(nil), c.Outputs...)
	for len(frontier) > 0 {
		cone := c.faninCone(frontier...)
		frontier = frontier[:0]
		for n := range cone {
			if cone[n] && !obs[n] {
				obs[n] = true
				if ff := c.Nodes[n].FF; ff >= 0 {
					d := c.FFs[ff].D
					if !obs[d] {
						frontier = append(frontier, d)
					}
				}
			}
		}
	}
	return obs
}

// ControllableNodes returns the set of nodes structurally reachable from
// the primary inputs or constants, possibly through flip-flops. Nodes
// outside this set depend only on the power-up state.
func (c *Circuit) ControllableNodes() []bool {
	ctrl := make([]bool, c.NumNodes())
	var frontier []NodeID
	frontier = append(frontier, c.Inputs...)
	for gi := range c.Gates {
		if len(c.Gates[gi].In) == 0 { // constants
			frontier = append(frontier, c.Gates[gi].Out)
		}
	}
	for len(frontier) > 0 {
		cone := c.fanoutCone(frontier...)
		frontier = frontier[:0]
		for n := range cone {
			if cone[n] && !ctrl[n] {
				ctrl[n] = true
				if ffIdx := c.Nodes[n].DOf; ffIdx >= 0 {
					q := c.FFs[ffIdx].Q
					if !ctrl[q] {
						frontier = append(frontier, q)
					}
				}
			}
		}
	}
	return ctrl
}

// SequentialDepth returns, for each flip-flop, the minimum number of
// flip-flops on a structural path from any primary input to its D node
// (0 when the D cone touches a primary input directly), or -1 when the
// flip-flop is not controllable from the inputs at all. It measures how
// many time frames are needed before input values can influence the
// flip-flop.
func (c *Circuit) SequentialDepth() []int {
	depth := make([]int, c.NumFFs())
	for i := range depth {
		depth[i] = -1
	}
	// nodeDepth is the best known depth at which a node becomes
	// input-driven.
	const inf = int(^uint(0) >> 1)
	nodeDepth := make([]int, c.NumNodes())
	for i := range nodeDepth {
		nodeDepth[i] = inf
	}
	var frontier []NodeID
	for _, in := range c.Inputs {
		nodeDepth[in] = 0
		frontier = append(frontier, in)
	}
	for round := 0; len(frontier) > 0; round++ {
		// Propagate through combinational logic at the current depth.
		cone := c.fanoutCone(frontier...)
		for n := range cone {
			if cone[n] && nodeDepth[n] > round {
				nodeDepth[n] = round
			}
		}
		// Cross flip-flops into the next frame.
		frontier = frontier[:0]
		for i, ff := range c.FFs {
			if nodeDepth[ff.D] == round && depth[i] < 0 {
				depth[i] = round
				if nodeDepth[ff.Q] > round+1 {
					nodeDepth[ff.Q] = round + 1
					frontier = append(frontier, ff.Q)
				}
			}
		}
	}
	return depth
}
