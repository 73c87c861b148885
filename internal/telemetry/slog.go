package telemetry

import (
	"context"
	"log/slog"
)

// SlogSink forwards selected events to a structured logger. It exists
// for the operator-facing path — violations and other rare,
// security-relevant events — not for bulk event logging; attach an
// execution trace or the tracer for that. Kinds outside the configured
// set are dropped before any attribute is built.
type SlogSink struct {
	log   *slog.Logger
	kinds [maxEventKind + 1]bool
}

// NewSlogSink returns a sink logging the given kinds through log. With
// no kinds, it logs only EvViolation.
func NewSlogSink(log *slog.Logger, kinds ...EventKind) *SlogSink {
	s := &SlogSink{log: log}
	if len(kinds) == 0 {
		kinds = []EventKind{EvViolation}
	}
	for _, k := range kinds {
		if k >= 1 && k <= maxEventKind {
			s.kinds[k] = true
		}
	}
	return s
}

// Event implements Sink.
func (s *SlogSink) Event(e Event) {
	if int(e.Kind) >= len(s.kinds) || !s.kinds[e.Kind] {
		return
	}
	level := slog.LevelInfo
	if e.Kind == EvViolation {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("kind", e.Kind.String()),
	}
	if e.Addr != 0 {
		attrs = append(attrs, slog.Uint64("addr", e.Addr))
	}
	if e.Size != 0 {
		attrs = append(attrs, slog.Int("size", e.Size))
	}
	if e.Class != 0 {
		attrs = append(attrs, slog.Uint64("class", e.Class))
	}
	if e.Layout != 0 {
		attrs = append(attrs, slog.Uint64("layout", e.Layout))
	}
	if e.Field != 0 {
		attrs = append(attrs, slog.Int("field", e.Field))
	}
	if e.Site != "" {
		attrs = append(attrs, slog.String("site", e.Site))
	}
	if e.Detail != "" {
		attrs = append(attrs, slog.String("detail", e.Detail))
	}
	s.log.LogAttrs(context.Background(), level, "polar event", attrs...)
}
