package nbody_test

import (
	"fmt"
	"log"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/nbody"
	"perfscale/internal/sim"
)

// ExampleSimulate is the n-body package as a mini-application: a leapfrog
// time integration of a small self-gravitating cluster whose forces are
// computed by the data-replicating distributed algorithm each step. It
// reports energy conservation (the integrator is symplectic) and what the
// paper's model says each force evaluation costs on the case-study
// machine.
func ExampleSimulate() {
	const (
		n     = 128
		p     = 8
		c     = 2
		steps = 25
		dt    = 2e-3
	)
	m := machine.SimDefault()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}

	// A cluster spread over a 10-unit box (well separated, smooth dynamics).
	bodies := nbody.RandomBodies(n, 2026)
	for i := 0; i < n; i++ {
		bodies[i*nbody.WordsPerBody] *= 10
		bodies[i*nbody.WordsPerBody+1] *= 10
		bodies[i*nbody.WordsPerBody+2] *= 10
	}
	st := nbody.NewState(bodies)
	e0 := st.Energy()

	res, err := nbody.Simulate(cost, p, c, st, steps, dt)
	if err != nil {
		log.Fatal(err)
	}
	e1 := res.Final.Energy()

	fmt.Printf("n-body mini-app: %d bodies, %d leapfrog steps of dt=%g on %d ranks (c=%d)\n\n", n, steps, dt, p, c)
	fmt.Printf("energy: %.6f -> %.6f (drift %.4f%%) — symplectic integration holds\n",
		e0, e1, 100*(e1-e0)/e0)
	fmt.Printf("force evaluations: %d, total simulated time %.3e s\n",
		len(res.Sims), res.TotalSimTime())

	one := res.Sims[0]
	s := one.MaxStats()
	fmt.Printf("per evaluation: %.0f flops, %.0f words, %.0f messages on the busiest rank\n\n",
		s.Flops, s.WordsSent, s.MsgsSent)

	// What the paper's model says about this workload per step.
	r := core.NBody(m, n, p, s.PeakMemWords/nbody.WordsPerBody, nbody.FlopsPerPair)
	fmt.Printf("model per evaluation on %s: T = %.3e s, E = %.3e J, %.2f GFLOPS/W\n",
		m.Name, r.TotalTime(), r.TotalEnergy(), r.GFLOPSPerWatt())
	fmt.Println("inside the replication range, stepping faster with more ranks costs no extra energy.")
	// Output:
	// n-body mini-app: 128 bodies, 25 leapfrog steps of dt=0.002 on 8 ranks (c=2)
	//
	// energy: -1565.743204 -> -1565.743132 (drift -0.0000%) — symplectic integration holds
	// force evaluations: 50, total simulated time 2.394e-03 s
	// per evaluation: 38960 flops, 416 words, 5 messages on the busiest rank
	//
	// model per evaluation on simdefault: T = 3.901e-05 s, E = 3.152e-04 J, 0.99 GFLOPS/W
	// inside the replication range, stepping faster with more ranks costs no extra energy.
}
