// Command bfs-bench regenerates the file-system benchmarks of "Byzantine
// Fault Tolerance Can Be Fast" (DSN 2001): the scaled modified Andrew
// benchmark (Figure 8) and PostMark (Figure 9), comparing BFS (the
// replicated file service), NO-REP (the same service unreplicated) and
// NFS-STD (the kernel NFSv2 + Ext2fs model).
//
//	bfs-bench -figure 8 -copies 100,500
//	bfs-bench -figure 9 -files 1000 -transactions 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bftfast/internal/bench"
	"bftfast/internal/workload"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 8, 9, all")
	copiesFlag := flag.String("copies", "100,500", "comma-separated Andrew copy counts")
	files := flag.Int("files", 1000, "PostMark initial pool size")
	transactions := flag.Int("transactions", 5000, "PostMark transaction count")
	flag.Parse()

	var copies []int
	for _, tok := range strings.Split(*copiesFlag, ",") {
		var c int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &c); err != nil || c <= 0 {
			fmt.Fprintf(os.Stderr, "bfs-bench: bad copy count %q\n", tok)
			os.Exit(2)
		}
		copies = append(copies, c)
	}

	pm := workload.DefaultPostMark()
	pm.InitialFiles = *files
	pm.Transactions = *transactions
	if *figure == "all" {
		for _, name := range bench.FSFigureNames {
			bench.WriteFSFigure(os.Stdout, name, copies, pm)
		}
		return
	}
	if !bench.WriteFSFigure(os.Stdout, *figure, copies, pm) {
		fmt.Fprintf(os.Stderr, "bfs-bench: unknown figure %q\n", *figure)
		os.Exit(2)
	}
}
