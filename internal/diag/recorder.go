package diag

import (
	"encoding/json"
	"io"
	"time"
)

// The flight recorder: an obs ring of the newest diagnostic events kept at
// all times, so the moments leading up to a hang or a crash are
// available after the fact — dumped by stingd on SIGQUIT, on a
// watchdog-detected scheduler stall, and on /debug/diag?dump=1. The
// dump format is line-oriented JSON that scripts/tracecat can merge
// across nodes by timestamp.

// Event is one flight-recorder entry.
type Event struct {
	T      time.Time `json:"t"`
	Kind   string    `json:"kind"`
	Space  string    `json:"space,omitempty"`
	Key    string    `json:"key,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Count  uint64    `json:"count,omitempty"`
}

// Dump is the on-disk/wire shape of a flight-recorder dump.
type Dump struct {
	Node     string    `json:"node,omitempty"`
	DumpedAt time.Time `json:"dumped_at"`
	Dropped  uint64    `json:"dropped,omitempty"`
	Events   []Event   `json:"events"`
}

// DumpJSON writes the flight recorder as one JSON document tagged with
// the node name. The recorder keeps recording while the dump is written.
func (d *Diagnoser) DumpJSON(w io.Writer) error {
	st := d.rec.Stats()
	dump := Dump{Node: d.cfg.Node, DumpedAt: time.Now(), Dropped: st.Dropped, Events: d.rec.Tail(d.rec.Cap())}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dump)
}

// DecodeDump parses a dump produced by DumpJSON.
func DecodeDump(rd io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(rd).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}
