// Package obs is the serving stack's dependency-free observability
// kit: a lightweight span tracer (bounded ring buffer, parent IDs,
// trace-level sampling), a log/slog JSON logger in the serving stack's
// line format, and a Prometheus text-format (0.0.4) metrics writer. It
// imports only the standard library so every layer — core phases,
// triangle kernels, the service — can carry probes without dependency
// cycles or new modules; spans reach the kernels on the context
// (ContextWithSpan, SpanFromContext).
//
// The cardinal rule is that observability stays off the deterministic
// hot path: a nil *Tracer or nil *Span is a valid receiver whose
// methods do nothing and allocate nothing, so instrumented code
// performs only a nil check when the operator has not switched tracing
// on, and outputs are bit-identical either way. Logging is off when the
// caller holds no *slog.Logger.
package obs
