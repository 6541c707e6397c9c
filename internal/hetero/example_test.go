package hetero_test

import (
	"fmt"
	"log"

	"perfscale/internal/hetero"
	"perfscale/internal/machine"
)

// ExampleBestSubset applies the heterogeneous extension (the paper's
// citation [7]) to the devices of Table II: partition one matrix
// multiplication's flops across a GPU, a server CPU and an embedded core so
// all three finish together, then ask which sub-ensemble actually
// minimizes energy.
func ExampleBestSubset() {
	devices := map[string]machine.DeviceSpec{}
	for _, d := range machine.TableIIDevices() {
		devices[d.Name] = d
	}
	mk := func(name string, eps float64) hetero.Proc {
		return hetero.FromDevice(devices[name], 1e-10, 1e-7, 1e-10, 0, 1e-9, eps, 1<<30, 1<<20)
	}
	procs := []hetero.Proc{
		mk("Nvidia GTX590", 0.5),
		mk("Intel Sandy Bridge 2687W", 0.5),
		mk("ARM Cortex A9 (2.0GHz)", 0.5),
	}
	const work = 1e13 // one 17100^3-ish multiply

	part, err := hetero.PartitionFlops(procs, work)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equal-finish partition of %.0g flops:\n", work)
	for i, p := range procs {
		fmt.Printf("  %-28s %6.2f%% of the work\n", p.Name, 100*part.Shares[i]/work)
	}
	fmt.Printf("makespan %.3f s, energy %.1f J\n\n", part.Time, part.Energy)

	idx, best, err := hetero.BestSubset(procs, work, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("energy-optimal sub-ensemble (no deadline): %d device(s), E = %.1f J\n", len(idx), best.Energy)
	for _, i := range idx {
		fmt.Printf("  keeps %s\n", procs[i].Name)
	}

	deadline := part.Time * 1.0005
	idx2, withDeadline, err := hetero.BestSubset(procs, work, deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunder a deadline of %.3f s: %d device(s), E = %.1f J (%.1f%% more)\n",
		deadline, len(idx2), withDeadline.Energy, 100*(withDeadline.Energy/best.Energy-1))
	fmt.Println("\nheterogeneity keeps the theorem honest: speed is free only when the helpers are efficient.")
	// Output:
	// equal-finish partition of 1e+13 flops:
	//   Nvidia GTX590                 85.93% of the work
	//   Intel Sandy Bridge 2687W      13.79% of the work
	//   ARM Cortex A9 (2.0GHz)         0.28% of the work
	// makespan 3.480 s, energy 1804.9 J
	//
	// energy-optimal sub-ensemble (no deadline): 1 device(s), E = 1473.3 J
	//   keeps Nvidia GTX590
	//
	// under a deadline of 3.481 s: 3 device(s), E = 1804.9 J (22.5% more)
	//
	// heterogeneity keeps the theorem honest: speed is free only when the helpers are efficient.
}
