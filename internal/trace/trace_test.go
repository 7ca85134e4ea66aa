package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestEmptyGantt(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Gantt(&buf, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no task spans") {
		t.Fatalf("empty gantt: %q", buf.String())
	}
}
