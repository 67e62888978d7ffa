// Command bft-replica runs one replica of a BFT-replicated key-value store
// as a standalone process, so a group can be deployed across processes or
// machines:
//
//	bft-keygen -replicas 4 -clients 100 -out ./keys
//	bft-replica -id 0 -keys ./keys/node-0.keys -peers 0=:5300,1=:5301,2=:5302,3=:5303,100=:5400 &
//	bft-replica -id 1 -keys ./keys/node-1.keys -peers ... &   # and 2, 3
//	bft-kv -id 100 -keys ./keys/node-100.keys -peers ... set greeting hello
//
// The peer table maps every node id (replicas and clients) to a UDP
// address; each process binds only its own entry.
//
// With -telemetry the process serves its live telemetry plane over HTTP
// (/metrics, /healthz, /statusz, /debug/pprof/, /flight); bft-top
// aggregates a fleet of such endpoints. With -flight the replica keeps a
// bounded ring of recent protocol events and dumps it as a BFTTRC01 file
// (readable by bft-trace -decode) on SIGQUIT, on an engine panic, and on
// shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bftfast/bft"
	"bftfast/internal/kvservice"
)

func main() {
	id := flag.Int("id", 0, "this replica's id in [0, replicas)")
	replicas := flag.Int("replicas", 4, "group size (3f+1)")
	keysPath := flag.String("keys", "", "keyring file from bft-keygen")
	peersFlag := flag.String("peers", "", "node address table: id=host:port,...")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /statusz and pprof on this host:port (empty: disabled)")
	flightCap := flag.Int("flight", 0, "flight-recorder ring capacity in events (0: disabled)")
	flightDump := flag.String("flight-dump", "", "BFTTRC01 dump path for the flight recorder (default flight-<id>.bfttrc in the working directory)")
	flag.Parse()

	addrs, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bft-replica: %v", err)
	}
	blob, err := os.ReadFile(*keysPath)
	if err != nil {
		log.Fatalf("bft-replica: reading keys: %v", err)
	}
	ring, err := bft.ImportKeyring(blob)
	if err != nil {
		log.Fatalf("bft-replica: %v", err)
	}

	network, err := bft.NewUDPNetwork(addrs)
	if err != nil {
		log.Fatalf("bft-replica: %v", err)
	}
	defer network.Close()

	cfg := bft.DefaultConfig(*replicas, *id)
	if *flightCap > 0 {
		cfg.Trace = bft.NewTraceRecorder(*id, *flightCap)
	}
	replica, err := bft.StartReplica(cfg, kvservice.New(), ring, network)
	if err != nil {
		log.Fatalf("bft-replica: %v", err)
	}
	defer replica.Close()
	log.Printf("replica %d of %d serving on %s", *id, *replicas, addrs[*id])

	if *flightCap > 0 {
		path := *flightDump
		if path == "" {
			path = fmt.Sprintf("flight-%d.bfttrc", *id)
		}
		replica.SetFlightDump(path)
	}
	if *telemetryAddr != "" {
		bound, err := replica.ServeTelemetry(*telemetryAddr)
		if err != nil {
			log.Fatalf("bft-replica: %v", err)
		}
		log.Printf("replica %d telemetry on http://%s/metrics", *id, bound)
	}

	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-quit:
			// SIGQUIT dumps the flight ring and keeps serving.
			if path, err := replica.DumpFlight(); err != nil {
				log.Printf("replica %d: flight dump failed: %v", *id, err)
			} else {
				log.Printf("replica %d: flight ring dumped to %s", *id, path)
			}
		case <-sig:
			log.Printf("replica %d shutting down: %+v", *id, replica.Stats())
			return
		case <-tick.C:
			log.Printf("replica %d: view=%d stats=%+v host=%+v", *id, replica.View(), replica.Stats(), replica.HostStats())
		}
	}
}

// parsePeers parses "id=host:port,id=host:port,...".
func parsePeers(s string) (map[int]string, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	out := make(map[int]string)
	start := 0
	for i := 0; i <= len(s); i++ {
		if i != len(s) && s[i] != ',' {
			continue
		}
		tok := s[start:i]
		start = i + 1
		var id int
		var addr string
		if n, err := fmt.Sscanf(tok, "%d=%s", &id, &addr); n != 2 || err != nil {
			return nil, fmt.Errorf("bad peer entry %q", tok)
		}
		out[id] = addr
	}
	return out, nil
}
