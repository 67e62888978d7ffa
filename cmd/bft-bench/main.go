// Command bft-bench regenerates the micro-benchmark figures of "Byzantine
// Fault Tolerance Can Be Fast" (DSN 2001) on the simulated testbed:
//
//	bft-bench -figure 2          # latency vs result size (Figure 2)
//	bft-bench -figure 3          # f=1 vs f=2 latency (Figure 3)
//	bft-bench -figure 4          # throughput for 0/0, 0/4 and 4/0 (Figure 4)
//	bft-bench -figure 5          # digest replies ablation (Figure 5)
//	bft-bench -figure 6          # request batching ablation (Figure 6)
//	bft-bench -figure 7          # separate request transmission (Figure 7)
//	bft-bench -figure tentative  # §4.4 tentative-execution results
//	bft-bench -figure piggyback  # §4.4 piggybacked-commit results
//	bft-bench -figure ablation   # design-knob sweeps (window, K, threshold)
//	bft-bench -figure adversary  # Byzantine campaign + adversarial 4/0 column
//	bft-bench -figure all        # everything (without the adversary campaign)
//
// -scale shrinks measurement windows for quick looks (e.g. -scale 0.2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bftfast/internal/adversary/campaign"
	"bftfast/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 2-7, tentative, piggyback, ablation, adversary, all")
	scale := flag.Float64("scale", 1.0, "measurement-window scale (smaller is faster, noisier)")
	clientsFlag := flag.String("clients", "", "comma-separated client counts for throughput sweeps")
	flag.Parse()

	clients := bench.ClientCounts
	if *clientsFlag != "" {
		clients = clients[:0]
		for _, tok := range strings.Split(*clientsFlag, ",") {
			var c int
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &c); err != nil || c <= 0 {
				fmt.Fprintf(os.Stderr, "bft-bench: bad client count %q\n", tok)
				os.Exit(2)
			}
			clients = append(clients, c)
		}
	}

	out := os.Stdout
	switch *figure {
	case "all":
		for _, name := range bench.FigureNames {
			bench.WriteFigure(out, name, clients, *scale)
		}
	case "adversary":
		campaign.AdversarialFigure4(clients, *scale).Print(out)
		res := campaign.Run(campaign.Params{Seed: 1, Scale: *scale, Clients: 10})
		for _, tab := range res.Tables() {
			tab.Print(out)
		}
		if err := res.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "bft-bench: adversarial campaign: %v\n", err)
			os.Exit(1)
		}
	default:
		if !bench.WriteFigure(out, *figure, clients, *scale) {
			fmt.Fprintf(os.Stderr, "bft-bench: unknown figure %q\n", *figure)
			os.Exit(2)
		}
	}
}
