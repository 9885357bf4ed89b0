package diag

import (
	"encoding/json"
	"net/http"
)

// Handler serves the diagnosis report at /debug/diag. A plain GET runs
// a fresh sampler pass and returns the full Report as JSON; ?dump=1
// returns a flight-recorder dump instead (the same document SIGQUIT
// writes to stderr, mergeable across nodes by scripts/tracecat -diag).
type Handler struct {
	D *Diagnoser
}

// ServeHTTP implements http.Handler.
func (h Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.D == nil {
		http.Error(w, "diagnosis disabled", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("dump") == "1" {
		h.D.Record("dump", "", "", "flight recorder dumped via /debug/diag", 0)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = h.D.DumpJSON(w)
		return
	}
	rep := h.D.Sample()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(rep)
}
