package keysearch

import (
	"errors"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/parpool"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(block, key uint64) bool {
		return Decrypt(Encrypt(block, key), key) == block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncryptChangesBlock(t *testing.T) {
	f := func(block, key uint64) bool {
		return Encrypt(block, key) != block || block == Encrypt(block, key) && false
	}
	// A permutation may have fixed points in principle; check a known set
	// instead of all inputs.
	_ = f
	fixed := 0
	for b := uint64(0); b < 4096; b++ {
		if Encrypt(b, 0xdeadbeef) == b {
			fixed++
		}
	}
	if fixed > 1 {
		t.Errorf("%d fixed points in 4096 blocks; diffusion broken", fixed)
	}
}

func TestKeySensitivity(t *testing.T) {
	// Adjacent keys must produce different ciphertexts almost always.
	same := 0
	const n = 4096
	for k := uint64(0); k < n; k++ {
		if Encrypt(0x0123456789abcdef, k) == Encrypt(0x0123456789abcdef, k+1) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d adjacent-key collisions in %d", same, n)
	}
}

func TestDiffusion(t *testing.T) {
	// Flipping one plaintext bit should flip roughly half the ciphertext
	// bits on average.
	var totalFlips, trials int
	for b := uint64(0); b < 64; b++ {
		c0 := Encrypt(0, 42)
		c1 := Encrypt(1<<b, 42)
		diff := c0 ^ c1
		for ; diff != 0; diff &= diff - 1 {
			totalFlips++
		}
		trials++
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Errorf("average bit flips %.1f, want ≈32", avg)
	}
}

func TestSearchFindsPlantedKey(t *testing.T) {
	const key = 0x000000000003_1337 % (1 << 20)
	pairs := MakePairs(key, 0x1122334455667788, 0xcafebabe12345678)
	res, err := Search(pairs, 0, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("planted key not found")
	}
	if res.Key != key {
		t.Fatalf("found %#x, want %#x", res.Key, key)
	}
	if res.Tested == 0 || res.Workers != 4 {
		t.Errorf("result bookkeeping: %+v", res)
	}
}

func TestSearchExhaustsWithoutMatch(t *testing.T) {
	// Pairs generated under a key far outside the searched range.
	pairs := MakePairs(1<<40, 1, 2, 3)
	res, err := Search(pairs, 0, 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("found spurious key %#x", res.Key)
	}
	if res.Tested < 1<<16 {
		t.Errorf("tested %d keys, want full keyspace", res.Tested)
	}
}

func TestSearchWorkerCounts(t *testing.T) {
	const key = 77777
	pairs := MakePairs(key, 0xaaaa, 0xbbbb)
	for _, w := range []int{0, 1, 2, 8, 64} {
		res, err := Search(pairs, 0, 1<<18, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Found || res.Key != key {
			t.Errorf("workers=%d: found=%v key=%#x", w, res.Found, res.Key)
		}
	}
}

func TestSearchSingleKeyRange(t *testing.T) {
	pairs := MakePairs(5, 123)
	res, err := Search(pairs, 5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Key != 5 {
		t.Errorf("single-key range: %+v", res)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(nil, 0, 10, 1); !errors.Is(err, ErrNoPairs) {
		t.Errorf("no pairs: %v", err)
	}
	if _, err := Search(MakePairs(1, 2), 10, 5, 1); !errors.Is(err, ErrKeyspace) {
		t.Errorf("inverted range: %v", err)
	}
}

func TestMultiplePairsDisambiguate(t *testing.T) {
	// With a single 64→64 pair, false positives are conceivable in a toy
	// keyspace; with three pairs they are vanishing. Verify the match
	// logic actually uses all pairs.
	if match(1, MakePairs(2, 10, 20, 30)) {
		t.Error("wrong key matched all pairs")
	}
	if !match(42, MakePairs(42, 10, 20, 30)) {
		t.Error("right key rejected")
	}
}

func TestKeysPerSecond(t *testing.T) {
	r := Result{Tested: 1000, Seconds: 2}
	if got := r.KeysPerSecond(); got != 500 {
		t.Errorf("KeysPerSecond = %v", got)
	}
	if (Result{Tested: 10}).KeysPerSecond() != 0 {
		t.Error("zero-duration throughput should be 0")
	}
}

// TestParallelSpeedup measures the claim itself: multiple workers search
// faster than one. CI machines vary; require only a 1.3× gain from 1→4
// workers on an exhaustive (no-early-exit) search.
//
// Other test binaries share the machine under `go test ./...`, and on a
// 2-CPU box one busy neighbour leaves the 4-worker search a single CPU
// for as long as it runs. So the 1- and 4-worker pools alternate, the
// order flipping each round, and the test compares the medians of the
// last nine rounds of each: load that comes and goes lands on both
// sides. While those medians fall short it keeps sampling, for up to
// 20 s, so a neighbour that finishes lets the claim be measured; a
// search that does not parallelise never reaches the bound in any
// window.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs ≥2 CPUs to observe parallel speedup")
	}
	const (
		window = 9
		space  = 1 << 19
		budget = 20 * time.Second
	)
	pairs := MakePairs(1<<40, 1, 2) // never found: exhausts the range
	p1, p4 := parpool.New(1), parpool.New(4)
	defer p1.Close()
	defer p4.Close()
	var t1, t4 []float64
	time1 := func() { t1 = append(t1, searchSeconds(t, p1, pairs, space)) }
	time4 := func() { t4 = append(t4, searchSeconds(t, p4, pairs, space)) }
	deadline := time.Now().Add(budget)
	for r := 0; ; r++ {
		if r%2 == 0 {
			time1()
			time4()
		} else {
			time4()
			time1()
		}
		if r+1 < window {
			continue
		}
		w1, w4 := t1[r+1-window:], t4[r+1-window:]
		m1, m4 := median(w1), median(w4)
		if m1 <= 0 || m4 <= 0 {
			t.Skip("timer resolution too coarse")
		}
		sp := m1 / m4
		if sp >= 1.3 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("median speedup 1→4 workers = %.2f over the last %d of %d rounds (1 worker %v, 4 workers %v), want ≥1.3 (embarrassingly parallel)",
				sp, window, r+1, w1, w4)
			return
		}
	}
}

// searchSeconds times one exhaustive search of [0, space) on p.
func searchSeconds(t *testing.T, p *parpool.Pool, pairs []Pair, space uint64) float64 {
	t.Helper()
	r, err := SearchOn(p, pairs, 0, space, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	return r.Seconds
}

// median returns the middle value of xs (the upper middle for an even
// count), sorting a copy.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestSearchClockIsDeterministic: with an injected scripted clock the
// whole Result — including Seconds and the derived throughput — is a pure
// function of the inputs, which is what lets exhibits built on key-search
// timings regenerate identically.
func TestSearchClockIsDeterministic(t *testing.T) {
	const key = 4242
	pairs := MakePairs(key, 0x1234, 0x5678)
	run := func() Result {
		base := time.Unix(800000000, 0) // a 1995 vintage instant
		calls := 0
		clock := func() time.Time {
			calls++
			return base.Add(time.Duration(calls-1) * 250 * time.Millisecond)
		}
		res, err := SearchClock(pairs, 0, 1<<16, 1, clock)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("scripted clock still nondeterministic: %+v vs %+v", a, b)
	}
	if a.Seconds != 0.25 {
		t.Errorf("Seconds = %v, want the scripted 0.25", a.Seconds)
	}
	if !a.Found || a.Key != key {
		t.Errorf("search result wrong: %+v", a)
	}
	if got := a.KeysPerSecond(); got != float64(a.Tested)/0.25 {
		t.Errorf("KeysPerSecond = %v", got)
	}
}

// TestSearchClockNilClock: a nil clock skips measurement entirely.
func TestSearchClockNilClock(t *testing.T) {
	pairs := MakePairs(9, 0x1234)
	res, err := SearchClock(pairs, 0, 1<<12, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds != 0 {
		t.Errorf("nil clock measured %v seconds", res.Seconds)
	}
	if !res.Found || res.Key != 9 {
		t.Errorf("search result wrong: %+v", res)
	}
}
