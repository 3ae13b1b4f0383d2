package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestLoggerJSONLines pins NewJSONLogger's wire format: one JSON object
// per line, opening with "ts" (RFC 3339, UTC), then the lower-case
// "level" and "msg", then the fields in call order; lines below the
// level are dropped.
func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	lg := NewJSONLogger(&buf, slog.LevelDebug)
	lg.Info("query served",
		"tenant", "acme",
		"count", 42,
		"hit", true,
		"err", errors.New("boom"),
		"ratio", 0.25,
		"time", "later", // a caller's own "time" field is not the timestamp
	)
	lg.Debug("fine detail")
	NewJSONLogger(&buf, slog.LevelInfo).Debug("dropped")
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	const fields = `","level":"info","msg":"query served","tenant":"acme","count":42,"hit":true,"err":"boom","ratio":0.25,"time":"later"}`
	if !strings.HasPrefix(lines[0], `{"ts":"`) || !strings.HasSuffix(lines[0], fields) {
		t.Fatalf("line 0 = %s, want {\"ts\":\"...%s", lines[0], fields)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not valid JSON: %v (%s)", err, lines[0])
	}
	ts, err := time.Parse(time.RFC3339Nano, rec["ts"].(string))
	if err != nil || ts.Location() != time.UTC {
		t.Fatalf("ts %v not RFC 3339 UTC: %v", rec["ts"], err)
	}
	if !strings.Contains(lines[1], `"level":"debug","msg":"fine detail"`) {
		t.Fatalf("debug line = %s", lines[1])
	}
}
