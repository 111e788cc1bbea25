package cli

import (
	"bytes"
	"strings"
	"testing"
)

// TestProgressCompletionsThrottled: completed campaign sections obey the
// same throttle as every other line, so 50 back-to-back one-word drop
// campaigns print one line, not 50.
func TestProgressCompletionsThrottled(t *testing.T) {
	var buf bytes.Buffer
	progress := ProgressPrinter(&buf)
	for i := 0; i < 50; i++ {
		progress(64, 64)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("50 completed sections printed %d lines, want 1:\n%s", got, buf.String())
	}
	if want := "progress: 64/64 faults (100.0%)\n"; buf.String() != want {
		t.Fatalf("line = %q, want %q", buf.String(), want)
	}
}
