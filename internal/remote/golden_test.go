package remote

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tspace"
)

// traceCtxHex is the TRACECTX extension the golden requests carry when
// traced: marker 1, length 24, then the trace and parent-span ids below.
const traceCtxHex = "01180102030405060708090a0b0c0d0e0f101112131415161718"

// TestGoldenFrames pins protocol version 4 byte for byte. The hex was
// printed by the encoder of commit 2af4682, the last one that negotiated
// versions, speaking v4: a frame that differs here is a fifth version,
// whatever the constant says. Each frame must also decode and re-encode to
// itself, so what that commit sends this one reads. The one exception is the
// stats reply: its body became the server's Prometheus text exposition, in
// place of a binary counter map, so a client older than that change cannot
// read a STATS reply.
func TestGoldenFrames(t *testing.T) {
	requests := []struct {
		name string
		req  request
		hex  string
	}{
		{"put", request{op: opPut, id: 2, space: "jobs", tuple: tspace.Tuple{"job", int64(7), 3.5, true, nil}},
			"020000000200000000046a6f62730505036a6f62030e04400c0000000000000200"},
		{"get with deadline", request{op: opGet, id: 3, deadline: 250 * time.Millisecond, space: "jobs",
			template: tspace.Template{"job", tspace.F("n")}},
			"0300000003000000fa046a6f62730205036a6f6206016e"},
		{"tryrd", request{op: opTryRd, id: 4, space: "q", template: tspace.Template{tspace.F("")}},
			"0600000004000000000171010600"},
		{"cancel", request{op: opCancel, target: 3},
			"0900000000000000000000000003"},
		{"txncommit", request{op: opTxnCommit, id: 5, space: "bank", txnOps: []tspace.TxnOp{
			{Kind: tspace.TxnRead, Space: "bank", Ver: 3, Tup: tspace.Tuple{"acct", "a", int64(100)}},
			{Kind: tspace.TxnTake, Space: "bank", Tup: tspace.Tuple{"acct", "a", int64(100)}},
			{Kind: tspace.TxnPut, Space: "audit", Tup: tspace.Tuple{"log", "a"}},
		}},
			"0a00000005000000000462616e6b03010462616e6b030305046163637405016103c801020462616e6b00030504616363740501" +
				"6103c80103056175646974000205036c6f67050161"},
		{"batch of 2", request{op: opBatch, id: 6, batch: []batchEntry{
			{space: "a", tuple: tspace.Tuple{"x", int64(1)}},
			{space: "b", tuple: tspace.Tuple{true, 2.5, nil}},
		}},
			"0b0000000600000000000201610205017803020162030204400400000000000000"},
		{"announce", request{op: opAnnounce, poolSize: 4},
			"0c00000000000000000004"},
		{"hello", request{op: opHello},
			"0100000000000000000004"},
		{"stats", request{op: opStats, id: 7},
			"07000000070000000000"},
		{"len", request{op: opLen, id: 8, space: "jobs"},
			"080000000800000000046a6f6273"},
	}
	for _, tc := range requests {
		for _, traced := range []bool{false, true} {
			name, req, want := tc.name, tc.req, tc.hex
			if traced {
				name += " +tracectx"
				want += traceCtxHex
				req.hasTrace = true
				req.trace = obs.TraceID{Hi: 0x0102030405060708, Lo: 0x090a0b0c0d0e0f10}
				req.parentSpan = 0x1112131415161718
			}
			got, err := appendRequest(nil, req)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if hex.EncodeToString(got) != want {
				t.Errorf("%s: frame drifted from v4\n got %x\nwant %s", name, got, want)
			}
			dec, err := decodeRequest(mustHex(t, want))
			if err != nil {
				t.Fatalf("%s: golden frame does not decode: %v", name, err)
			}
			if dec.hasTrace != traced {
				t.Errorf("%s: decoded hasTrace = %v", name, dec.hasTrace)
			}
			if again, err := appendRequest(nil, dec); err != nil || !bytes.Equal(again, got) {
				t.Errorf("%s: decode→encode is not the identity (err=%v)\n got %x", name, err, again)
			}
		}
	}

	tupleResp, err := appendTupleResp(nil, 3, tspace.Tuple{"job", int64(7)}, tspace.Bindings{"n": int64(7)})
	if err != nil {
		t.Fatalf("tuple response: %v", err)
	}
	responses := []struct {
		name  string
		frame []byte
		hex   string
	}{
		{"ok (put, txncommit, hello)", appendOK(nil, 2), "400000000204"},
		{"tuple (get)", tupleResp, "41000000030205036a6f62030e01016e030e"},
		{"nomatch (tryrd)", appendRespHeader(nil, respNoMatch, 4), "4200000004"},
		{"err canceled", appendErrResp(nil, 3, codeCanceled, ErrCanceled.Error()),
			"4300000003081a72656d6f74653a206f7065726174696f6e2063616e63656c6564"},
		{"err redirect", appendErrResp(nil, 2, codeRedirect, "n2 10.0.0.2:7000"),
			"430000000209106e322031302e302e302e323a37303030"},
		{"batch of 2", appendBatchResp(nil, 6, []batchStatus{{}, {code: codeRedirect, msg: "n2 10.0.0.2:7000"}}),
			"4600000006020009106e322031302e302e302e323a37303030"},
		{"len", appendLenResp(nil, 8, 42), "450000000854"},
		{"stats", appendStatsResp(nil, 7, []byte("# TYPE sting_remote_timeouts_total counter\nsting_remote_timeouts_total 2\n")),
			"4400000007232054595045207374696e675f72656d6f74655f74696d656f7574735f746f74616c20636f756e7465720a7374" +
				"696e675f72656d6f74655f74696d656f7574735f746f74616c20320a"},
	}
	for _, tc := range responses {
		if hex.EncodeToString(tc.frame) != tc.hex {
			t.Errorf("%s: frame drifted from v4\n got %x\nwant %s", tc.name, tc.frame, tc.hex)
		}
		if _, err := decodeResponse(mustHex(t, tc.hex)); err != nil {
			t.Errorf("%s: golden frame does not decode: %v", tc.name, err)
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad golden hex: %v", err)
	}
	return b
}
