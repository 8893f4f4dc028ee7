package queue

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
	"sync"
	"time"
)

// Journal records are encoded by hand: json.Marshal reflects over
// durRecord on every append, and appends run under the queue lock on
// every mutating call. appendDurRecord writes exactly the bytes
// json.Marshal(rec) would, so the journal format and every reader
// (Recover, Follower, foldRecord) are unchanged. It handles the values
// the queue produces — names and IDs of plain printable ASCII, times in
// years 0–9999 — and reports false for anything else, which then goes
// through json.Marshal.

// maxPooledRecord caps the encode buffers kept for reuse, so one huge
// batch does not pin its buffer for the life of the process.
const maxPooledRecord = 256 << 10

var recordBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// encodeDurRecord encodes rec into a pooled buffer. The caller returns
// the buffer with putRecordBuf once the bytes have been consumed.
func encodeDurRecord(rec *durRecord) (*[]byte, error) {
	bp := recordBufs.Get().(*[]byte)
	b, ok := appendDurRecord((*bp)[:0], rec)
	if !ok {
		var err error
		// Marshal a copy: handing rec itself to an interface would move
		// every caller's record to the heap, fast path included.
		if b, err = json.Marshal(*rec); err != nil {
			putRecordBuf(bp)
			return nil, err
		}
	}
	*bp = b
	return bp, nil
}

func putRecordBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledRecord {
		recordBufs.Put(bp)
	}
}

// appendDurRecord appends the JSON encoding of rec to b, field for
// field in durRecord's declaration order with its omitempty rules (T
// has none in effect: encoding/json never omits a struct). It reports
// false when some value needs escaping or a time falls outside what
// the fast path formats.
func appendDurRecord(b []byte, rec *durRecord) ([]byte, bool) {
	ok := true
	b = append(b, `{"op":`...)
	b, ok = appendPlainString(b, rec.Op, ok)
	if rec.Q != "" {
		b = append(b, `,"q":`...)
		b, ok = appendPlainString(b, rec.Q, ok)
	}
	b = append(b, `,"t":`...)
	b, ok = appendTime(b, rec.T, ok)
	if len(rec.IDs) > 0 {
		b = append(b, `,"ids":`...)
		b, ok = appendStrings(b, rec.IDs, ok)
	}
	if len(rec.Bodies) > 0 {
		b = append(b, `,"bodies":[`...)
		for i, body := range rec.Bodies {
			if i > 0 {
				b = append(b, ',')
			}
			if body == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '"')
			b = base64.StdEncoding.AppendEncode(b, body)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	if len(rec.Recvs) > 0 {
		b = append(b, `,"recvs":[`...)
		for i, n := range rec.Recvs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	if rec.NextID != 0 {
		b = append(b, `,"next":`...)
		b = strconv.AppendInt(b, int64(rec.NextID), 10)
	}
	if len(rec.Receipts) > 0 {
		b = append(b, `,"receipts":`...)
		b, ok = appendStrings(b, rec.Receipts, ok)
	}
	if len(rec.Vis) > 0 {
		b = append(b, `,"vis":[`...)
		for i, t := range rec.Vis {
			if i > 0 {
				b = append(b, ',')
			}
			b, ok = appendTime(b, t, ok)
		}
		b = append(b, ']')
	}
	if len(rec.Dup) > 0 {
		b = append(b, `,"dup":[`...)
		for i, d := range rec.Dup {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, d)
		}
		b = append(b, ']')
	}
	return append(b, '}'), ok
}

func appendStrings(b []byte, ss []string, ok bool) ([]byte, bool) {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b, ok = appendPlainString(b, s, ok)
	}
	return append(b, ']'), ok
}

// appendPlainString quotes s, which must be printable ASCII with none
// of the bytes encoding/json escapes ('"', '\\', and the HTML-unsafe
// '<', '>', '&'); otherwise it reports false.
func appendPlainString(b []byte, s string, ok bool) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			ok = false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), ok
}

// appendTime writes t as time.Time.MarshalJSON does (RFC 3339 with
// nanoseconds, quoted). It reports false where MarshalJSON fails: a
// year outside 0–9999, or a zone offset of a day or more.
func appendTime(b []byte, t time.Time, ok bool) ([]byte, bool) {
	b = append(b, '"')
	start := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	s := b[start:]
	n := len(s)
	switch {
	case s[len("9999")] != '-':
		ok = false
	case s[n-1] != 'Z':
		c := s[n-len("Z07:00")]
		hours := 10*int(s[n-5]-'0') + int(s[n-4]-'0')
		if '0' <= c && c <= '9' || hours >= 24 {
			ok = false
		}
	}
	return append(b, '"'), ok
}
