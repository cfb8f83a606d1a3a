// Scenario-corpus driver: run any of the distributed kernels in
// internal/kernels — sample-sort (all-to-all exchange), BFS (irregular
// one-sided gets + atomic claims), the deep-halo stencil (ghost-cell
// puts), and map-reduce word count (locked buckets + tree reduction) —
// verify the output against the kernel's serial oracle, and print the
// virtual-time makespan.
//
// Run with:
//
//	go run ./examples/kernels                       # all four, defaults
//	go run ./examples/kernels -kernel bfs -size 800 -pes 16
//	go run ./examples/kernels -kernel stencil -size 96 -width 3 -pes 8
//	go run ./examples/kernels -chip Epiphany-III
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"tshmem"
	"tshmem/internal/core"
	"tshmem/internal/kernels"
)

func main() {
	var (
		which = flag.String("kernel", "all", "kernel to run: all, "+strings.Join(kernels.Names(), ", "))
		size  = flag.Int("size", 0, "problem size (0: kernel default)")
		pes   = flag.Int("pes", 8, "number of processing elements")
		seed  = flag.Int64("seed", 1, "input generator seed")
		width = flag.Int("width", 2, "stencil halo depth")
		iters = flag.Int("iters", 0, "stencil sub-iterations (0: 4*width)")
		chip  = flag.String("chip", "TILE-Gx8036", "chip model")
	)
	flag.Parse()

	c := tshmem.ChipByName(*chip)
	if c == nil {
		var known []string
		for _, k := range tshmem.Chips() {
			known = append(known, k.Name)
		}
		log.Fatalf("unknown chip %q (known: %s, or synthetic-WxH)",
			*chip, strings.Join(known, ", "))
	}

	var menu []kernels.Kernel
	if *which == "all" {
		menu = kernels.Kernels()
	} else {
		k, err := kernels.ByName(*which)
		if err != nil {
			log.Fatal(err)
		}
		menu = []kernels.Kernel{k}
	}

	for _, k := range menu {
		s := kernels.Spec{Size: *size, Seed: *seed, NPEs: *pes, Width: *width, Iters: *iters}
		rep, out, err := kernels.Launch(k, s, core.Config{Chip: c})
		if err != nil {
			log.Fatalf("%s: %v", k.Name(), err)
		}
		if err := k.Verify(s, out); err != nil {
			log.Fatalf("%s: differential check failed: %v", k.Name(), err)
		}
		fmt.Printf("%-10s %s\n", k.Name(), k.Title())
		fmt.Printf("           %d PEs on %s: %d output elements, oracle-verified, makespan %.1f us\n",
			*pes, c.Name, len(out), rep.MaxTime.Us())
	}
}
