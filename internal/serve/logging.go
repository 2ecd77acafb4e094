package serve

// Structured request logging. The server is a library and stays silent
// by default; WithLogger installs a log/slog logger and the server then
// emits one line per served query — request_id, tenant, kind,
// algorithm, probe and round-trip totals, and the trace id when the
// request was sampled — plus one line per error envelope written. The
// lines carry the same correlation keys as the error envelopes and the
// trace plane, so a slow-query investigation can pivot from a log line
// to /traces/{id} to the exact rpc span that cost the time.

import (
	"log/slog"
	"net/http"
	"time"
)

// WithLogger installs a structured request logger (nil keeps the
// library default: silent).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// logQuery emits one request line for a served query.
func (s *Server) logQuery(w http.ResponseWriter, kind, algo string, ten *tenantState, elapsed time.Duration, ans any) {
	if s.log == nil {
		return
	}
	var st answerStats
	if a, ok := ans.(interface{ stats() answerStats }); ok {
		st = a.stats()
	}
	var traceID string
	if a, ok := ans.(interface{ traceID() string }); ok {
		traceID = a.traceID()
	}
	attrs := make([]any, 0, 18)
	attrs = append(attrs,
		"request_id", w.Header().Get(RequestIDHeader),
		"kind", kind,
		"algo", algo,
		"status", http.StatusOK,
		"duration_us", elapsed.Microseconds(),
		"probes", st.Probes,
		"round_trips", st.RoundTrips,
	)
	if ten != nil {
		attrs = append(attrs, "tenant", ten.Name)
	}
	if traceID != "" {
		attrs = append(attrs, "trace_id", traceID)
	}
	s.log.Info("query", attrs...)
}

// logError emits one line per error envelope written.
func (s *Server) logError(w http.ResponseWriter, status int, err error) {
	if s.log == nil {
		return
	}
	s.log.Warn("request failed",
		"request_id", w.Header().Get(RequestIDHeader),
		"status", status,
		"error", err.Error(),
	)
}
