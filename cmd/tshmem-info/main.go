// Command tshmem-info prints the modeled processor catalogue (the Tilera
// and Epiphany families plus synthetic-WxH grids), including the paper's
// Table II architecture comparison, the substrate observability counter
// taxonomy (-counters), the fault-injection kind taxonomy (-faults), the
// causal profiler's blame-category taxonomy (-profile), and the
// scenario-corpus workload menu (-kernels). Flags must precede any
// operands: Go's flag package stops parsing at the first positional
// argument.
package main

import (
	"flag"
	"fmt"
	"strings"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
	"tshmem/internal/kernels"
	"tshmem/internal/profile"
	"tshmem/internal/stats"
)

// selectChips resolves a -chips spec against the registry: an empty spec
// selects every registered chip (the registry is the source of truth, so
// newly modeled chips appear without touching this command), otherwise
// each comma-separated name is looked up via arch.ByName, which also
// parses synthetic-WxH grids.
func selectChips(spec string) ([]*arch.Chip, error) {
	if spec == "" {
		return arch.Chips(), nil
	}
	var list []*arch.Chip
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		chip := arch.ByName(name)
		if chip == nil {
			var known []string
			for _, k := range arch.Chips() {
				known = append(known, k.Name)
			}
			return nil, fmt.Errorf("unknown chip %q; known chips: %s (or synthetic-WxH)",
				name, strings.Join(known, ", "))
		}
		list = append(list, chip)
	}
	return list, nil
}

func main() {
	var chips = flag.String("chips", "", "comma-separated chip names (default: every modeled chip)")
	var all = flag.Bool("all", false, "print every modeled chip (same as an empty -chips)")
	var counters = flag.Bool("counters", false, "print the observability counter taxonomy and exit")
	var faults = flag.Bool("faults", false, "print the fault-injection kind taxonomy and exit")
	var prof = flag.Bool("profile", false, "print the causal profiler's blame-category taxonomy and exit")
	var kern = flag.Bool("kernels", false, "print the scenario-corpus workload menu and exit")
	flag.Parse()

	if *kern {
		fmt.Println("scenario-corpus kernels (internal/kernels; tshmem-bench -probe <id>):")
		for _, k := range kernels.Kernels() {
			fmt.Printf("  %-10s  %s\n", k.Name(), k.Title())
		}
		fmt.Println("Each kernel carries a serial reference oracle; every probe and sweep\n" +
			"run is verified against it before a makespan is reported. The IDs are\n" +
			"also valid for tshmem-bench -sweep-kernels rows and examples/kernels\n" +
			"-kernel. See EXPERIMENTS.md (\"Choosing a kernel for a sweep\").")
		return
	}

	if *counters {
		fmt.Print(stats.Taxonomy())
		return
	}
	if *faults {
		fmt.Print(fault.Taxonomy())
		return
	}
	if *prof {
		fmt.Println("blame categories (per-PE virtual-time ledger; tshmem-bench -profile):")
		for _, e := range profile.Taxonomy() {
			fmt.Printf("  %-12s %s\n", e.Name, e.Desc)
		}
		fmt.Println("Each PE's categories sum exactly to its virtual end time; 'compute'\n" +
			"is the residual no wait or transport explains. See docs/OBSERVABILITY.md.")
		return
	}

	spec := *chips
	if *all {
		spec = ""
	}
	list, err := selectChips(spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(arch.FormatTableII(list...))
}
