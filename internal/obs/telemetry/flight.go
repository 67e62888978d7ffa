package telemetry

import (
	"fmt"
	"os"

	"bftfast/internal/obs"
)

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
