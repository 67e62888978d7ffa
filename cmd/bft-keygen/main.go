// Command bft-keygen provisions the pairwise session and master keys for a
// BFT deployment and writes one keyring file per node, so independently
// started processes (cmd/bft-replica, clients) share the keys.
//
//	bft-keygen -replicas 4 -clients 100,101 -out ./keys
//
// Keys go only to pairs a message can travel between (bft.Provision): a
// replica's file holds keys for every other node, a client's file keys for
// the replicas only, since clients never talk to each other. A client id
// that continues the replica ids (4 with -replicas 4) is keyed like a
// replica. A repeated client id is an error.
//
// The files contain raw secrets: distribute them like private keys. In a
// production system this provisioning is replaced by a PKI plus the
// protocol's signed new-key messages.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bftfast/bft"
)

func main() {
	replicas := flag.Int("replicas", 4, "number of replicas (3f+1)")
	clients := flag.String("clients", "100", "comma-separated client node ids")
	out := flag.String("out", "keys", "output directory")
	flag.Parse()

	ids := make([]int, 0, *replicas+2)
	for i := 0; i < *replicas; i++ {
		ids = append(ids, i)
	}
	for _, tok := range strings.Split(*clients, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(tok, "%d", &id); err != nil || id < *replicas {
			fmt.Fprintf(os.Stderr, "bft-keygen: bad client id %q (must be >= %d)\n", tok, *replicas)
			os.Exit(2)
		}
		ids = append(ids, id)
	}

	rings := bft.NewKeyrings(ids)
	if err := bft.Provision(rand.Reader, rings); err != nil {
		fmt.Fprintf(os.Stderr, "bft-keygen: provisioning: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o700); err != nil {
		fmt.Fprintf(os.Stderr, "bft-keygen: %v\n", err)
		os.Exit(1)
	}
	for i, id := range ids {
		path := filepath.Join(*out, fmt.Sprintf("node-%d.keys", id))
		if err := os.WriteFile(path, bft.ExportKeyring(rings[i]), 0o600); err != nil {
			fmt.Fprintf(os.Stderr, "bft-keygen: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
