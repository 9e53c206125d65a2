// The SLO-aware online controller: optimize Case IV once, compile the
// SLO-feasible frontier into a plan library, then let the controller track
// a diurnal day of traffic — switching the live serving runtime between
// cheaper and beefier plans while holding p99 TTFT.
package main

import (
	"fmt"
	"log"

	"rago"
)

func main() {
	schema := rago.CaseIV(8e9)
	cluster := rago.DefaultCluster()

	o, err := rago.NewOptimizer(schema, rago.DefaultOptions(cluster))
	if err != nil {
		log.Fatal(err)
	}
	front := o.Optimize()

	slo := rago.SLO{TTFT: 0.5}
	lib, err := rago.NewPlanLibrary(o, front, slo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan library: %d SLO-feasible plans, %d-%d chips\n",
		len(lib.Entries), lib.Entries[0].Chips, lib.Entries[len(lib.Entries)-1].Chips)

	// A bursty diurnal day, compressed: base load at half the biggest
	// plan's capacity, swinging +-80% over a 10-minute cycle.
	base := 0.5 * lib.Entries[len(lib.Entries)-1].QPS
	reqs, err := rago.DiurnalTrace(20000, base, 0.8, 600, 7)
	if err != nil {
		log.Fatal(err)
	}
	span := reqs[len(reqs)-1].Arrival

	ctl, err := rago.NewController(lib, rago.ControlConfig{
		SLO:      slo,
		Window:   30,
		Interval: 10,
		Headroom: 1.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := ctl.Run(rago.ServeOptions{Speedup: span / 10.0}, reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
}
