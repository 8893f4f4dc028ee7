package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestPutGetDelete(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("in"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("in", "a.txt", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("in", "a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Errorf("got %q", got)
	}
	if err := s.Delete("in", "a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("in", "a.txt"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("after delete: %v", err)
	}
	// Deleting again is fine (S3 semantics).
	if err := s.Delete("in", "a.txt"); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

func TestBucketErrors(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket(""); err == nil {
		t.Error("empty bucket name should error")
	}
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b"); err != ErrBucketExists {
		t.Errorf("duplicate bucket: %v", err)
	}
	if err := s.Put("missing", "k", nil); err != ErrNoSuchBucket {
		t.Errorf("put to missing bucket: %v", err)
	}
	if _, err := s.Get("missing", "k"); err != ErrNoSuchBucket {
		t.Errorf("get from missing bucket: %v", err)
	}
	if _, err := s.List("missing", ""); err != ErrNoSuchBucket {
		t.Errorf("list missing bucket: %v", err)
	}
	if err := s.DeleteBucket("missing"); err != ErrNoSuchBucket {
		t.Errorf("delete missing bucket: %v", err)
	}
	if err := s.DeleteBucket("b"); err != nil {
		t.Fatal(err)
	}
}

func TestEventualConsistencyFreshObject(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	s := NewStore(Config{ConsistencyWindow: 5 * time.Second, Clock: clock})
	s.CreateBucket("b")
	s.Put("b", "new", []byte("v1"))
	// Inside the window a fresh object may be invisible.
	if _, err := s.Get("b", "new"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("inside window: err = %v, want ErrNoSuchKey", err)
	}
	// GetConsistent bypasses the anomaly.
	if got, err := s.GetConsistent("b", "new"); err != nil || string(got) != "v1" {
		t.Errorf("GetConsistent = %q, %v", got, err)
	}
	clock.advance(6 * time.Second)
	if got, err := s.Get("b", "new"); err != nil || string(got) != "v1" {
		t.Errorf("after window: %q, %v", got, err)
	}
	u := s.Usage()
	if u.NotFoundReads != 1 {
		t.Errorf("NotFoundReads = %d, want 1", u.NotFoundReads)
	}
}

func TestEventualConsistencyOverwrite(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	s := NewStore(Config{ConsistencyWindow: 5 * time.Second, Clock: clock})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("old"))
	clock.advance(10 * time.Second)
	s.Put("b", "k", []byte("new"))
	// Inside the window the overwrite shows the previous version.
	got, err := s.Get("b", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("stale read = %q, want old", got)
	}
	clock.advance(6 * time.Second)
	got, _ = s.Get("b", "k")
	if string(got) != "new" {
		t.Errorf("converged read = %q, want new", got)
	}
	if s.Usage().StaleReads != 1 {
		t.Errorf("StaleReads = %d, want 1", s.Usage().StaleReads)
	}
}

func TestStrongConsistencyByDefault(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("x"))
	if got, err := s.Get("b", "k"); err != nil || string(got) != "x" {
		t.Errorf("default config should be strongly consistent: %q, %v", got, err)
	}
}

func TestListWithPrefix(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	for _, k := range []string{"in/1", "in/2", "out/1", "zz"} {
		s.Put("b", k, []byte(k))
	}
	keys, err := s.List("b", "in/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "in/1" || keys[1] != "in/2" {
		t.Errorf("List(in/) = %v", keys)
	}
	all, _ := s.List("b", "")
	if len(all) != 4 {
		t.Errorf("List() = %v", all)
	}
}

func TestUsageAccounting(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b") // 1 put request
	payload := bytes.Repeat([]byte("x"), 1000)
	s.Put("b", "k", payload) // 1 put, 1000 in, 1000 stored
	s.Get("b", "k")          // 1 get, 1000 out
	s.List("b", "")          // 1 list
	s.Delete("b", "k")       // 1 delete, -1000 stored
	u := s.Usage()
	if u.PutRequests != 2 || u.GetRequests != 1 || u.ListRequests != 1 || u.DeleteRequests != 1 {
		t.Errorf("request counts: %+v", u)
	}
	if u.BytesIn != 1000 || u.BytesOut != 1000 {
		t.Errorf("bytes: in=%d out=%d", u.BytesIn, u.BytesOut)
	}
	if u.BytesStored != 0 {
		t.Errorf("BytesStored = %d, want 0 after delete", u.BytesStored)
	}
	if u.Requests() != 5 {
		t.Errorf("Requests() = %d, want 5", u.Requests())
	}
}

func TestOverwriteAccounting(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	s.Put("b", "k", make([]byte, 100))
	s.Put("b", "k", make([]byte, 250))
	if got := s.Usage().BytesStored; got != 250 {
		t.Errorf("BytesStored = %d, want 250 (no double count)", got)
	}
	s.DeleteBucket("b")
	if got := s.Usage().BytesStored; got != 0 {
		t.Errorf("BytesStored after bucket delete = %d", got)
	}
}

// Property: GetConsistent always returns exactly what the latest Put
// wrote, for any sequence of overwrites.
func TestQuickPutGetConsistent(t *testing.T) {
	s := NewStore(Config{ConsistencyWindow: time.Hour, Clock: &fakeClock{now: time.Unix(0, 0)}})
	s.CreateBucket("b")
	i := 0
	f := func(data []byte) bool {
		i++
		key := fmt.Sprintf("k%d", i%5)
		if err := s.Put("b", key, data); err != nil {
			return false
		}
		got, err := s.GetConsistent("b", key)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	s.Put("b", "k", []byte("abc"))
	got, _ := s.Get("b", "k")
	got[0] = 'X'
	again, _ := s.Get("b", "k")
	if string(again) != "abc" {
		t.Error("mutating a returned slice must not affect the store")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	data := []byte("abc")
	s.Put("b", "k", data)
	data[0] = 'X'
	got, _ := s.Get("b", "k")
	if string(got) != "abc" {
		t.Error("mutating the input slice must not affect the store")
	}
}

func TestStat(t *testing.T) {
	s := NewStore(Config{ConsistencyWindow: time.Hour, Clock: &fakeClock{now: time.Unix(0, 0)}})
	s.CreateBucket("b")
	if _, _, err := s.Stat("b", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("Stat on missing key: %v, want ErrNoSuchKey", err)
	}
	// Stat is a consistent view: it sees the write inside the window.
	s.Put("b", "k", []byte("abc"))
	if size, version, err := s.Stat("b", "k"); err != nil || size != 3 || version != 1 {
		t.Errorf("after Put: size %d version %d err %v, want 3 1 <nil>", size, version, err)
	}
	s.Append("b", "k", []byte("de"))
	if size, version, err := s.Stat("b", "k"); err != nil || size != 5 || version != 2 {
		t.Errorf("after Append: size %d version %d err %v, want 5 2 <nil>", size, version, err)
	}
	if _, _, err := s.Stat("nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("Stat on missing bucket: %v, want ErrNoSuchBucket", err)
	}
}

func TestInjectedLatency(t *testing.T) {
	s := NewStore(Config{RequestLatency: 30 * time.Millisecond})
	s.CreateBucket("b")
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Put", func() { s.Put("b", "k", []byte("x")) }},
		// A miss is still a round trip to the service.
		{"GetConsistent of a missing key", func() { s.GetConsistent("b", "absent") }},
		{"GetConsistent in a missing bucket", func() { s.GetConsistent("nope", "k") }},
	} {
		start := time.Now()
		c.op()
		if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
			t.Errorf("%s returned in %v; latency not applied", c.name, elapsed)
		}
	}
}

func TestBandwidthThrottle(t *testing.T) {
	s := NewStore(Config{BandwidthBytesPerSec: 1 << 20}) // 1 MiB/s
	s.CreateBucket("b")
	payload := make([]byte, 1<<18) // 256 KiB → ≥ 250ms
	start := time.Now()
	s.Put("b", "k", payload)
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("256KiB at 1MiB/s took %v; throttle not applied", elapsed)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(Config{})
	s.CreateBucket("b")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i)
				if err := s.Put("b", key, []byte(key)); err != nil {
					t.Error(err)
				}
				got, err := s.Get("b", key)
				if err != nil || string(got) != key {
					t.Errorf("get %s: %q, %v", key, got, err)
				}
			}
		}(w)
	}
	wg.Wait()
	keys, _ := s.List("b", "")
	if len(keys) != 400 {
		t.Errorf("got %d keys, want 400", len(keys))
	}
}
