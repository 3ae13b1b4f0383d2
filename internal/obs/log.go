package obs

import (
	"io"
	"log/slog"
	"strings"
)

// NewJSONLogger returns a logger writing one JSON object per line to w
// at or above level: {"ts":..., "level":..., "msg":..., <key>:<value>...}.
// It is slog's JSON handler with the time key renamed to "ts" (RFC 3339,
// UTC) and the level lower-cased ("info", "warn", ...), the line format
// dexpanderd's log pipelines read.
func NewJSONLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			switch {
			case len(groups) > 0:
			case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
				return slog.Time("ts", a.Value.Time().UTC())
			case a.Key == slog.LevelKey:
				return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
			}
			return a
		},
	}))
}
