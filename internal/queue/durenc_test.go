package queue

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// checkDurRecordEncoding asserts that encodeDurRecord produces exactly
// json.Marshal's bytes for rec, or fails exactly when it fails.
func checkDurRecordEncoding(t *testing.T, rec *durRecord) {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	bp, err := encodeDurRecord(rec)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("encode error %v, json.Marshal error %v, record %+v", err, wantErr, rec)
	}
	if err != nil {
		return
	}
	defer putRecordBuf(bp)
	if !bytes.Equal(*bp, want) {
		t.Fatalf("encoding differs from json.Marshal\n got: %s\nwant: %s", *bp, want)
	}
}

func TestDurRecordEncodingMatchesJSON(t *testing.T) {
	at := time.Date(2026, 10, 17, 11, 7, 47, 123456789, time.UTC)
	east := time.FixedZone("east", 5*3600+30*60)
	cases := []struct {
		name string
		rec  durRecord
		// plain records must take the hand-written path, not the
		// json.Marshal fallback.
		plain bool
	}{
		{"genesis", durRecord{Op: opGenesis}, true},
		{"create", durRecord{Op: opCreateQueue, Q: "job-7/tasks"}, true},
		{"html escaped name", durRecord{Op: opCreateQueue, Q: "a<b>&c"}, false},
		{"quote and backslash", durRecord{Op: opCreateQueue, Q: `say "hi" \ bye`}, false},
		{"non-ascii name", durRecord{Op: opCreateQueue, Q: "jöb/täsks"}, false},
		{"line separator", durRecord{Op: opCreateQueue, Q: "a b"}, false},
		{"invalid utf-8", durRecord{Op: opCreateQueue, Q: "a\xffb"}, false},
		{"control characters", durRecord{Op: opCreateQueue, Q: "\x00\x01\b\f\n\r\t\x1f\x7f"}, false},
		{"send", durRecord{
			Op: opSend, Q: "q", IDs: []string{"q-1", "q-2", "q-3"},
			Bodies: [][]byte{[]byte("task"), {}, nil}, NextID: 3,
		}, true},
		{"transfer", durRecord{
			Op: opSend, Q: "q", IDs: []string{"q-9"}, Bodies: [][]byte{{0, 0xff, '\n', '<'}},
			Recvs: []int{0, 7, -1}, NextID: 9,
		}, true},
		{"empty slices", durRecord{
			Op: opDelete, Q: "q", IDs: []string{}, Bodies: [][]byte{}, Recvs: []int{},
			Receipts: []string{}, Vis: []time.Time{}, Dup: []bool{},
		}, true},
		{"receive", durRecord{
			Op: opReceive, Q: "q", T: at, IDs: []string{"q-1", "q-2"},
			Receipts: []string{"q-1#r1", "q-2#r3"}, Vis: []time.Time{at.Add(time.Minute), {}}, Dup: []bool{false, true},
		}, true},
		{"visibility in a zone", durRecord{
			Op: opVisibility, Q: "q", T: at.In(east), IDs: []string{"q-1"}, Vis: []time.Time{at.In(time.FixedZone("west", -8*3600))},
		}, true},
		{"whole seconds", durRecord{Op: opPurge, Q: "q", T: time.Unix(1000, 0).UTC()}, true},
		{"local clock reading", durRecord{Op: opPurge, Q: "q", T: time.Now()}, true},
		{"year 9999", durRecord{Op: opPurge, Q: "q", T: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)}, true},
		{"year 10000", durRecord{Op: opPurge, Q: "q", T: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}, false},
		{"negative year", durRecord{Op: opPurge, Q: "q", Vis: []time.Time{time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}}, false},
		{"offset just under a day", durRecord{Op: opPurge, T: at.In(time.FixedZone("near", 24*3600-60))}, true},
		{"offset of a day", durRecord{Op: opPurge, T: at.In(time.FixedZone("far", 24*3600))}, false},
		{"negative offset of a day", durRecord{Op: opPurge, T: at.In(time.FixedZone("far", -24*3600))}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkDurRecordEncoding(t, &c.rec)
			if _, ok := appendDurRecord(nil, &c.rec); ok != c.plain {
				t.Errorf("fast path taken = %v, want %v", ok, c.plain)
			}
		})
	}
}

func FuzzDurRecordEncoding(f *testing.F) {
	f.Add("send", "job-7/tasks", "job-7/tasks-1", "job-7/tasks-1#r1", []byte("body"), false, int64(1000), int64(5), 0, 3, true)
	f.Add("recv", "a<b>&c", "jöb", " ", []byte{}, true, int64(-62135596801), int64(0), 3600, -1, false)
	f.Add("vis", "\x00\n", "\xff", `"\`, []byte(nil), false, int64(253402300800), int64(999999999), 86400, 0, true)
	f.Fuzz(func(t *testing.T, op, q, id, receipt string, body []byte, nilBody bool, sec, nsec int64, zoneOff, recv int, dup bool) {
		if nilBody {
			body = nil
		}
		ts := time.Unix(sec, nsec).In(time.FixedZone("z", zoneOff))
		checkDurRecordEncoding(t, &durRecord{
			Op: op, Q: q, T: ts,
			IDs: []string{id, q}, Bodies: [][]byte{body, nil}, Recvs: []int{recv}, NextID: recv,
			Receipts: []string{receipt}, Vis: []time.Time{ts, {}}, Dup: []bool{dup, !dup},
		})
		checkDurRecordEncoding(t, &durRecord{Op: op, Q: q, IDs: []string{id}})
	})
}
