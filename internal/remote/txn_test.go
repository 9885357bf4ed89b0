package remote

import (
	"errors"
	"testing"

	"repro/internal/tspace"
)

func TestTxnCommitOverWire(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("bank")

	if err := sp.Put(nil, tspace.Tuple{"acct", "a", 100}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	tup, _, err := sp.TryRd(nil, tspace.Template{"acct", "a", tspace.F("n")})
	if err != nil {
		t.Fatalf("TryRd: %v", err)
	}
	err = c.CommitTxn(nil, []tspace.TxnOp{
		{Kind: tspace.TxnTake, Space: "bank", Tup: tup},
		{Kind: tspace.TxnPut, Space: "bank", Tup: tspace.Tuple{"acct", "a", int64(60)}},
		{Kind: tspace.TxnPut, Space: "bank", Tup: tspace.Tuple{"acct", "b", int64(40)}},
	})
	if err != nil {
		t.Fatalf("CommitTxn: %v", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{"acct", "a", 60}); err != nil {
		t.Errorf("post-commit a: %v", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{"acct", "b", 40}); err != nil {
		t.Errorf("post-commit b: %v", err)
	}
	if n := sp.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestTxnCommitConflictOverWire(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})

	// Taking a tuple that does not exist fails validation server-side and
	// must surface as a typed conflict, not an opaque internal error.
	err := c.CommitTxn(nil, []tspace.TxnOp{
		{Kind: tspace.TxnTake, Space: "bank", Tup: tspace.Tuple{"acct", "ghost", int64(1)}},
	})
	if !errors.Is(err, tspace.ErrTxnConflict) {
		t.Fatalf("err = %v, want ErrTxnConflict", err)
	}
	var ce *tspace.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not unwrap to *ConflictError", err)
	}
	// An aborted commit deposits nothing.
	if n := c.Space("bank").Len(); n != 0 {
		t.Errorf("Len = %d after failed commit, want 0", n)
	}
}

func TestTxnCommitEmptyLog(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	if err := c.CommitTxn(nil, nil); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
}

func TestTxnOpsRequestCodec(t *testing.T) {
	req := request{op: opTxnCommit, id: 9, space: "bank", txnOps: []tspace.TxnOp{
		{Kind: tspace.TxnRead, Space: "bank", Ver: 3, Tup: tspace.Tuple{"r", int64(1)}},
		{Kind: tspace.TxnPut, Space: "audit", Tup: tspace.Tuple{"log", "r"}},
	}}
	frame, err := appendRequest(nil, req)
	if err != nil {
		t.Fatalf("appendRequest: %v", err)
	}
	got, err := decodeRequest(frame)
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if got.op != opTxnCommit || got.id != 9 || len(got.txnOps) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.txnOps[0].Ver != 3 || got.txnOps[1].Space != "audit" {
		t.Errorf("ops round-trip mismatch: %+v", got.txnOps)
	}
}
