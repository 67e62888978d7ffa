package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"

	"bftfast/internal/obs"
)

// FlightRecorder turns a node's bounded ring of recent obs events into
// post-mortem BFTTRC01 dumps that cmd/bft-trace decodes. The ring itself
// is the engine's obs.Recorder — written in the node's event context under
// the usual nil-gated zero-alloc hook contract — so the flight recorder
// holds no event storage of its own: it binds a snapshot closure (which
// hosts implement with transport.Node.Do, serializing the read against
// the engine) to a dump destination.
//
// Dumps happen at three trigger points: SIGQUIT (wired by the server
// binaries), a panic escaping a handler call (wired through
// transport.Node.SetCrashDump — the hook runs on the panicking goroutine
// with the engine lock held, so the closure may read the ring directly), and
// campaign assertion failures (internal/adversary/campaign writes the
// attacked run's merged events through WriteDump).
type FlightRecorder struct {
	snapshot func() []obs.Event
	path     string

	mu sync.Mutex // serializes dumps (signal handler vs Close flush)
}

// NewFlightRecorder binds a snapshot source to a dump path. snapshot must
// be safe to call from arbitrary goroutines (wrap engine reads in
// transport.Node.Do); it may return nil when the node is already gone, in
// which case dumps write an empty, still-decodable trace.
func NewFlightRecorder(snapshot func() []obs.Event, path string) *FlightRecorder {
	return &FlightRecorder{snapshot: snapshot, path: path}
}

// Path returns the dump destination.
func (f *FlightRecorder) Path() string { return f.path }

// Dump snapshots the ring and writes it to the recorder's path, returning
// the path written.
func (f *FlightRecorder) Dump() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.path == "" {
		return "", fmt.Errorf("telemetry: flight recorder has no dump path")
	}
	if err := WriteDump(f.path, f.snapshot()); err != nil {
		return "", err
	}
	return f.path, nil
}

// DumpTo snapshots the ring and streams it to w as a BFTTRC01 trace.
func (f *FlightRecorder) DumpTo(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return obs.WriteTrace(w, f.snapshot())
}

// WriteDump writes one event snapshot to path as a BFTTRC01 trace file,
// atomically enough for post-mortem use (temp file + rename), so a crash
// mid-dump never leaves a half trace under the advertised name.
func WriteDump(path string, events []obs.Event) error {
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("telemetry: creating flight dump: %w", err)
	}
	if err := obs.WriteTrace(file, events); err != nil {
		file.Close()
		os.Remove(tmp)
		return fmt.Errorf("telemetry: writing flight dump: %w", err)
	}
	if err := file.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: closing flight dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: publishing flight dump: %w", err)
	}
	return nil
}
