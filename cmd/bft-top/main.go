// Command bft-top is a live fleet viewer for bft telemetry endpoints: it
// polls each process's /metrics (see bft-replica -telemetry), aggregates
// the scrapes, and renders one table row per node plus a fleet total —
// top(1) for a BFT group.
//
//	bft-top -endpoints 127.0.0.1:7300,127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303
//
// Columns: node id and role, current view, executed requests, throughput
// (executed delta per second between polls), execute-phase latency P50 and
// P99 (pre-prepare to execution, from the phase histograms), mailbox
// ("inbox") drops and depth, and UDP oversized datagrams. Unreachable
// endpoints render as DOWN and keep their last-known identity.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"bftfast/internal/obs/telemetry"
)

// row is one node's latest scrape, reduced to the displayed columns.
type row struct {
	endpoint string
	node     string
	role     string
	view     int64
	executed float64
	rate     float64 // executed/s since the previous poll
	p50      time.Duration
	p99      time.Duration
	drops    float64
	depth    float64
	oversize float64
	down     bool
}

func main() {
	endpoints := flag.String("endpoints", "", "comma-separated telemetry addresses (host:port)")
	interval := flag.Duration("interval", time.Second, "poll period")
	count := flag.Int("count", 0, "number of frames to render (0: until interrupted)")
	flag.Parse()
	if *endpoints == "" {
		fmt.Fprintln(os.Stderr, "bft-top: need -endpoints host:port,host:port,...")
		os.Exit(2)
	}
	targets := strings.Split(*endpoints, ",")
	client := &http.Client{Timeout: *interval}

	prev := make(map[string]row, len(targets)) // endpoint -> previous frame
	for frame := 0; *count == 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		rows := make([]row, 0, len(targets))
		for _, ep := range targets {
			ep = strings.TrimSpace(ep)
			r := scrape(client, ep)
			if p, ok := prev[ep]; ok {
				if r.down {
					// Keep identity so a dead node stays recognizable.
					r.node, r.role = p.node, p.role
				} else if dt := interval.Seconds(); dt > 0 && r.executed >= p.executed {
					r.rate = (r.executed - p.executed) / dt
				}
			}
			prev[ep] = r
			rows = append(rows, r)
		}
		render(os.Stdout, rows, frame > 0 && *count != 1)
	}
}

// scrape polls one endpoint and reduces its exposition to a row.
func scrape(client *http.Client, endpoint string) row {
	r := row{endpoint: endpoint, node: "?", role: "?", down: true}
	resp, err := client.Get("http://" + endpoint + "/metrics")
	if err != nil {
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r
	}
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return r
	}
	r.down = false
	for _, s := range samples {
		if n := s.Label("node"); n != "" {
			r.node = n
		}
		if role := s.Label("role"); role != "" {
			r.role = role
		}
		switch s.Name {
		case "bft_engine_view":
			r.view = int64(s.Value)
		case "bft_engine_executed_requests", "bft_client_completed":
			r.executed = s.Value
		case "bft_phase_execute_ns":
			switch s.Label("quantile") {
			case "0.5":
				r.p50 = time.Duration(s.Value)
			case "0.99":
				r.p99 = time.Duration(s.Value)
			}
		case "bft_transport_inbox_drops":
			r.drops = s.Value
		case "bft_transport_inbox_depth":
			r.depth = s.Value
		case "bft_udp_oversized":
			r.oversize = s.Value
		}
	}
	return r
}

// render draws one frame: a header, one line per node sorted by node id,
// and a TOTAL line summing the additive columns.
func render(w *os.File, rows []row, clear bool) {
	if clear {
		fmt.Fprint(w, "\033[H\033[2J")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].node < rows[j].node })
	fmt.Fprintf(w, "%-6s %-8s %6s %10s %9s %10s %10s %7s %6s %6s\n",
		"NODE", "ROLE", "VIEW", "EXECUTED", "OPS/S", "EXEC-P50", "EXEC-P99",
		"DROPS", "DEPTH", "OVERSZ")
	var total row
	live := 0
	for _, r := range rows {
		if r.down {
			fmt.Fprintf(w, "%-6s %-8s %s (endpoint %s)\n", r.node, r.role, "DOWN", r.endpoint)
			continue
		}
		live++
		total.executed += r.executed
		total.rate += r.rate
		total.drops += r.drops
		total.depth += r.depth
		total.oversize += r.oversize
		fmt.Fprintf(w, "%-6s %-8s %6d %10.0f %9.1f %10s %10s %7.0f %6.0f %6.0f\n",
			r.node, r.role, r.view, r.executed, r.rate,
			fmtDur(r.p50), fmtDur(r.p99), r.drops, r.depth, r.oversize)
	}
	fmt.Fprintf(w, "%-6s %-8s %6s %10.0f %9.1f %10s %10s %7.0f %6.0f %6.0f\n",
		"TOTAL", fmt.Sprintf("%d/%d up", live, len(rows)), "-", total.executed, total.rate,
		"-", "-", total.drops, total.depth, total.oversize)
}

// fmtDur renders a phase latency compactly ("-" for no samples yet).
func fmtDur(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
