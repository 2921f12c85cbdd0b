// coverage sweeps test-sequence length on a suite circuit and reports
// detected-fault counts for conventional simulation, the [4] baseline,
// and the proposed procedure — the qualitative picture behind Table 2:
// the MOT procedures dominate conventional simulation at every length,
// with backward implications at least matching pure expansion.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	c, err := motsim.BuiltinCircuit("sg298")
	if err != nil {
		log.Fatal(err)
	}
	faults := motsim.CollapsedFaults(c)
	fmt.Println("circuit:", c.Stats())
	fmt.Printf("faults: %d (collapsed)\n\n", len(faults))
	fmt.Printf("%8s %14s %14s %14s\n", "patterns", "conventional", "baseline[4]", "proposed")

	for _, length := range []int{8, 16, 32, 64} {
		T := motsim.RandomSequence(c, length, 1298)
		var conv, base, prop int64

		sim, err := motsim.New(c, T, motsim.BaselineConfig())
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(faults, nil)
		if err != nil {
			log.Fatal(err)
		}
		conv, base = res.Conv, res.Detected()

		sim, err = motsim.New(c, T, motsim.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		if res, err = sim.Run(faults, nil); err != nil {
			log.Fatal(err)
		}
		prop = res.Detected()

		fmt.Printf("%8d %14d %14d %14d\n", length, conv, base, prop)
	}
}
