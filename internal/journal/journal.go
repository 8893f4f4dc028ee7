// Package journal is the shared event-sourcing substrate of the
// system's durability story: an append-only log of JSON-line records in
// a blob object, plus snapshot + truncate compaction that bounds how
// much of the log a recovery must replay.
//
// The broker proved the pattern out (PR 3): every state transition is a
// record appended to a per-object journal, the in-memory state is
// nothing but a fold over those records, and recovery is re-running the
// fold. This package extracts the mechanics — CAS-guarded creation,
// appends, epoch-tagged snapshots, tail reads for followers — so queue
// shards and the broker journal through one implementation instead of
// two.
//
// # On-disk format
//
// A Log is one blob object of newline-terminated records. Records are
// opaque to this package except for one rule: a line starting with '!'
// is a control line. The only control line today is the epoch header
// written by Snapshot:
//
//	!{"seq":N}
//
// A log that has been compacted starts with its header; the state as of
// the truncation lives in a sibling object <key>.snap.N. A log that has
// never been compacted has no header (epoch 0) — which also keeps
// journals written before this package existed loadable.
//
// Snapshots go to per-epoch keys, not one well-known key, so a crash
// between "write snapshot" and "truncate log" leaves an orphan snapshot
// object and an untouched log — never a log whose header points at a
// snapshot from a different epoch.
//
// # Writer discipline
//
// A Log has one writer at a time: creation is CAS-guarded (PutIf
// version 0) precisely so a second writer cannot silently adopt a live
// journal. Snapshot is CAS-guarded too — it truncates only if no append
// raced it — so even a misbehaving second writer cannot make a
// compaction eat another writer's records.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/blob"
)

// Errors returned by this package, always wrapped with context; match
// with errors.Is. Blob-store errors (blob.ErrNoSuchKey for a log that
// does not exist yet, blob.ErrNoSuchBucket) pass through untranslated.
var (
	// ErrExists rejects Create against a log that already exists — the
	// caller is a second writer and must recover, not append.
	ErrExists = errors.New("journal: log already exists")
	// ErrRaced reports a Snapshot that lost its truncation CAS to a
	// concurrent append. Nothing was truncated; the caller retries once
	// its appends have quiesced.
	ErrRaced = errors.New("journal: snapshot raced a concurrent append")
	// ErrCorrupt reports a log whose control structure cannot be
	// decoded: an unparsable header, or a header pointing at a snapshot
	// object that is missing or itself a control-line orphan.
	ErrCorrupt = errors.New("journal: corrupt log")
)

// snapInfix separates a log key from the epoch number of one of its
// snapshot objects.
const snapInfix = ".snap."

// headerPrefix starts every control line.
const headerPrefix = '!'

// header is the epoch control line: the log was truncated at version
// Seq and the pre-truncation state lives in <key>.snap.<Seq>.
type header struct {
	Seq int64 `json:"seq"`
}

// Log names one append-only journal object. The zero value is not
// usable; all three fields are required. Log is a value type — copies
// share no state beyond the store itself.
type Log struct {
	Store  blob.API
	Bucket string
	Key    string
}

func (l Log) snapKey(seq int64) string {
	return fmt.Sprintf("%s%s%d", l.Key, snapInfix, seq)
}

// validateRecord rejects records this package could not read back:
// control-prefixed or newline-embedding lines would be misparsed as
// framing.
func validateRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	if rec[0] == headerPrefix {
		return fmt.Errorf("journal: record may not start with %q", headerPrefix)
	}
	if bytes.IndexByte(rec, '\n') >= 0 {
		return errors.New("journal: record may not contain a newline")
	}
	return nil
}

// Create opens the log with its first record, using the blob store's
// compare-and-swap so creation is exclusive: two writers racing to own
// one key cannot both win. ErrExists reports the loss.
func (l Log) Create(rec []byte) error {
	if err := validateRecord(rec); err != nil {
		return err
	}
	line := make([]byte, 0, len(rec)+1)
	line = append(line, rec...)
	line = append(line, '\n')
	if _, err := l.Store.PutIf(l.Bucket, l.Key, line, 0); err != nil {
		if errors.Is(err, blob.ErrPreconditionFailed) {
			return fmt.Errorf("%w: %s/%s", ErrExists, l.Bucket, l.Key)
		}
		return fmt.Errorf("journal: creating %s/%s: %w", l.Bucket, l.Key, err)
	}
	return nil
}

// Append adds one record to the log, creating it when absent. The
// caller must not act on a state transition whose append failed: the
// journal is the source of truth.
func (l Log) Append(rec []byte) error {
	if err := validateRecord(rec); err != nil {
		return err
	}
	line := make([]byte, 0, len(rec)+1)
	line = append(line, rec...)
	line = append(line, '\n')
	if _, err := l.Store.Append(l.Bucket, l.Key, line); err != nil {
		return fmt.Errorf("journal: appending to %s/%s: %w", l.Bucket, l.Key, err)
	}
	return nil
}

// CreateJSON and AppendJSON marshal v as the record.
func (l Log) CreateJSON(v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	return l.Create(rec)
}

func (l Log) AppendJSON(v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	return l.Append(rec)
}

// View is one consistent parse of a log: the snapshot state of its
// current epoch (nil when the log has never been compacted) and every
// record appended since. Size is the log object's byte length at read
// time — the offset a tailing reader resumes from.
type View struct {
	Seq      int64
	Snapshot []byte
	Entries  [][]byte
	Size     int64
}

// Load reads and parses the whole log. A log that does not exist
// returns blob.ErrNoSuchKey (wrapped).
//
// The log and its epoch snapshot are two objects read with two GETs, so
// a concurrent Snapshot can delete the snapshot Load's header points at
// (dropStaleSnapshots) between them. That race is benign — the log now
// carries a newer epoch — so a missing snapshot object triggers one
// re-read of the log before it is reported as corruption.
func (l Log) Load() (*View, error) {
	v, retry, err := l.loadOnce()
	if retry {
		v, _, err = l.loadOnce()
	}
	return v, err
}

func (l Log) loadOnce() (v *View, retry bool, err error) {
	data, err := l.Store.GetConsistent(l.Bucket, l.Key)
	if err != nil {
		return nil, false, err
	}
	v = &View{Size: int64(len(data))}
	rest := data
	if seq, ok, err := parseHeader(data); err != nil {
		return nil, false, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, l.Bucket, l.Key, err)
	} else if ok {
		v.Seq = seq
		v.Snapshot, err = l.Store.GetConsistent(l.Bucket, l.snapKey(seq))
		if err != nil {
			return nil, errors.Is(err, blob.ErrNoSuchKey),
				fmt.Errorf("%w: %s/%s: epoch %d snapshot: %v", ErrCorrupt, l.Bucket, l.Key, seq, err)
		}
		rest = data[bytes.IndexByte(data, '\n')+1:]
	}
	v.Entries, err = SplitEntries(rest)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, l.Bucket, l.Key, err)
	}
	return v, false, nil
}

// parseHeader decodes the epoch header when the data starts with one.
func parseHeader(data []byte) (seq int64, ok bool, err error) {
	if len(data) == 0 || data[0] != headerPrefix {
		return 0, false, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return 0, false, errors.New("unterminated header line")
	}
	var h header
	if err := json.Unmarshal(data[1:nl], &h); err != nil {
		return 0, false, fmt.Errorf("decoding header: %v", err)
	}
	if h.Seq <= 0 {
		return 0, false, fmt.Errorf("header seq %d out of range", h.Seq)
	}
	return h.Seq, true, nil
}

// SplitEntries parses journal bytes into records: newline-separated,
// blank lines skipped. A control line anywhere is an error — headers
// are only valid as the first line of a log, which Load strips before
// calling this.
func SplitEntries(data []byte) ([][]byte, error) {
	var entries [][]byte
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if line[0] == headerPrefix {
			return nil, fmt.Errorf("control line at record %d", i+1)
		}
		entries = append(entries, line)
	}
	return entries, nil
}

// Head reads the log's epoch and byte size without transferring its
// records — the cheap poll a follower runs between tail reads. seq is 0
// for a never-compacted log.
func (l Log) Head() (seq, size int64, err error) {
	data, size, err := l.Store.GetRange(l.Bucket, l.Key, 0, 128)
	if err != nil {
		return 0, 0, err
	}
	if len(data) > 0 && data[0] == headerPrefix {
		s, ok, err := parseHeader(data)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, l.Bucket, l.Key, err)
		}
		seq = s
	}
	return seq, size, nil
}

// Tail reads the log's bytes from offset off (consistent view) plus its
// current total size. Appends are whole lines, so a tail that starts at
// a previously observed size always starts at a record boundary —
// unless the log was truncated underneath the reader, which the
// returned size (smaller than off) reveals.
func (l Log) Tail(off int64) (data []byte, size int64, err error) {
	return l.Store.GetRange(l.Bucket, l.Key, off, -1)
}

// Snapshot compacts the log: it writes state to this epoch's snapshot
// object, then truncates the log to a single header line via
// compare-and-swap against the version it observed. An append that
// slips between the two fails the CAS and nothing is truncated
// (ErrRaced) — with a quiesced writer, which is the normal calling
// convention, the CAS always succeeds. Older epochs' snapshot objects
// are deleted best-effort after a successful truncation.
func (l Log) Snapshot(state []byte) error {
	_, version, err := l.Store.Stat(l.Bucket, l.Key)
	if err != nil {
		return fmt.Errorf("journal: snapshotting %s/%s: %w", l.Bucket, l.Key, err)
	}
	// The post-truncation version is the epoch tag, so successive
	// snapshots of one log get strictly increasing seqs.
	seq := version + 1
	if err := l.Store.Put(l.Bucket, l.snapKey(seq), state); err != nil {
		return fmt.Errorf("journal: writing snapshot %s/%s: %w", l.Bucket, l.snapKey(seq), err)
	}
	line, err := json.Marshal(header{Seq: seq})
	if err != nil {
		return fmt.Errorf("journal: encoding header: %w", err)
	}
	doc := make([]byte, 0, len(line)+2)
	doc = append(doc, headerPrefix)
	doc = append(doc, line...)
	doc = append(doc, '\n')
	if _, err := l.Store.PutIf(l.Bucket, l.Key, doc, version); err != nil {
		if errors.Is(err, blob.ErrPreconditionFailed) {
			return fmt.Errorf("%w: %s/%s", ErrRaced, l.Bucket, l.Key)
		}
		return fmt.Errorf("journal: truncating %s/%s: %w", l.Bucket, l.Key, err)
	}
	l.dropStaleSnapshots(seq)
	return nil
}

// dropStaleSnapshots best-effort deletes snapshot objects of epochs
// before keep.
func (l Log) dropStaleSnapshots(keep int64) {
	keys, err := l.Store.List(l.Bucket, l.Key+snapInfix)
	if err != nil {
		return
	}
	for _, k := range keys {
		var seq int64
		if _, err := fmt.Sscanf(k[len(l.Key+snapInfix):], "%d", &seq); err != nil {
			continue
		}
		if seq < keep {
			_ = l.Store.Delete(l.Bucket, k)
		}
	}
}

// Delete removes the log and all of its snapshot objects.
func (l Log) Delete() error {
	if err := l.Store.Delete(l.Bucket, l.Key); err != nil {
		return err
	}
	keys, err := l.Store.List(l.Bucket, l.Key+snapInfix)
	if err != nil {
		return nil // the log itself is gone; snapshots are best-effort
	}
	for _, k := range keys {
		_ = l.Store.Delete(l.Bucket, k)
	}
	return nil
}

// IsSnapshotKey reports whether a bucket key names some log's snapshot
// object rather than a log.
func IsSnapshotKey(key string) bool {
	i := strings.LastIndex(key, snapInfix)
	if i < 0 {
		return false
	}
	tail := key[i+len(snapInfix):]
	if tail == "" {
		return false
	}
	for _, c := range tail {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// List returns the log keys under a prefix, sorted, excluding snapshot
// objects — the recovery enumeration ("which journals exist?").
func List(store blob.API, bucketName, prefix string) ([]string, error) {
	keys, err := store.List(bucketName, prefix)
	if err != nil {
		return nil, err
	}
	logs := keys[:0]
	for _, k := range keys {
		if !IsSnapshotKey(k) {
			logs = append(logs, k)
		}
	}
	return logs, nil
}
