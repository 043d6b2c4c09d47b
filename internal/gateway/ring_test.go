package gateway

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// ringSeeds is how many independent member sets each ring property is
// checked against. Every seed derives a distinct set of member URLs, so
// the properties hold over the ring construction itself, not over one
// lucky layout.
const ringSeeds = 500

// ringMembers derives n distinct, realistic member URLs for a seed.
func ringMembers(seed uint64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.%d.%d.%d:8095", seed/251, seed%251, i+1)
	}
	return out
}

// ringKeys derives k distinct lookup keys for a seed, shaped like the
// canonical decision keys the gateway actually routes.
func ringKeys(seed uint64, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("\x1f%d\x1fdest-%d\x1fuse-%d\x1f%d", 500+37*i, i%17, seed, 1500)
	}
	return out
}

// TestRingBalance pins ownership evenness: at 128 vnodes, every member's
// share of a 2000-key population stays within a fixed band around fair
// share, across 500 member sets each at 3, 5, and 8 members. The band is
// generous per member (consistent hashing trades perfect balance for
// minimal disruption) but tight enough to catch a broken hash or a
// member starved by vnode placement.
func TestRingBalance(t *testing.T) {
	const keysPerCase = 2000
	for _, size := range []int{3, 5, 8} {
		size := size
		t.Run(fmt.Sprintf("members=%d", size), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < ringSeeds; seed++ {
				members := ringMembers(seed, size)
				r := buildRing(members, defaultVNodes)
				counts := make(map[string]int, size)
				for _, key := range ringKeys(seed, keysPerCase) {
					owner, ok := r.owner(key, nil)
					if !ok {
						t.Fatalf("seed %d: key %q resolved no owner", seed, key)
					}
					counts[owner]++
				}
				fair := float64(keysPerCase) / float64(size)
				for _, m := range members {
					share := float64(counts[m]) / fair
					if share < 0.55 || share > 1.60 {
						t.Errorf("seed %d: member %s owns %d of %d keys (%.2fx fair share)",
							seed, m, counts[m], keysPerCase, share)
					}
				}
			}
		})
	}
}

// TestRingRemovalMinimalDisruption pins the property the design leans
// on: removing one member remaps exactly that member's keys. Every key
// owned by a surviving member keeps its owner; every key owned by the
// removed member moves to some survivor.
func TestRingRemovalMinimalDisruption(t *testing.T) {
	const keysPerCase = 400
	for seed := uint64(0); seed < ringSeeds; seed++ {
		members := ringMembers(seed, 5)
		removed := members[int(seed)%len(members)]
		var survivors []string
		for _, m := range members {
			if m != removed {
				survivors = append(survivors, m)
			}
		}
		before := buildRing(members, defaultVNodes)
		after := buildRing(survivors, defaultVNodes)
		moved := 0
		for _, key := range ringKeys(seed, keysPerCase) {
			ob, _ := before.owner(key, nil)
			oa, _ := after.owner(key, nil)
			if ob == removed {
				moved++
				if oa == removed {
					t.Fatalf("seed %d: key %q still owned by removed member", seed, key)
				}
				continue
			}
			if oa != ob {
				t.Errorf("seed %d: key %q moved %s -> %s though %s was removed",
					seed, key, ob, oa, removed)
			}
		}
		// Sanity: the removed member owned a nontrivial share, so the
		// property was actually exercised.
		if moved == 0 {
			t.Errorf("seed %d: removed member owned no keys out of %d", seed, keysPerCase)
		}
	}
}

// TestRingDeterministic pins run-to-run identity: the ring is a pure
// function of the member set. Building from a differently-ordered,
// duplicated member list yields byte-identical points and identical
// owners for every key, with and without a member skipped.
func TestRingDeterministic(t *testing.T) {
	members := ringMembers(7, 6)
	shuffled := []string{members[3], members[0], members[5], members[3], members[1], members[4], members[2], members[0]}
	a := buildRing(members, defaultVNodes)
	b := buildRing(shuffled, defaultVNodes)
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}
	for _, key := range ringKeys(7, 1000) {
		oa, _ := a.owner(key, nil)
		ob, _ := b.owner(key, nil)
		if oa != ob {
			t.Fatalf("key %q: owner %s vs %s", key, oa, ob)
		}
		skip := func(m string) bool { return m != oa }
		na, _ := a.owner(key, skip)
		nb, _ := b.owner(key, skip)
		if na != nb || na == oa {
			t.Fatalf("key %q: next owner %s vs %s (owner %s)", key, na, nb, oa)
		}
	}
}

// TestRingOwnersSkipAndDistinct pins the lookup contract under a skip:
// the alive filter is honoured, keys owned by a surviving member keep
// their owner, and a skipped member's keys go to the member a ring
// built without it would pick, so a drain routes exactly like a
// removal and never moves keys between survivors. Skipping members one
// at a time walks each key through distinct owners until none is left.
func TestRingOwnersSkipAndDistinct(t *testing.T) {
	members := ringMembers(11, 4)
	r := buildRing(members, defaultVNodes)
	dead := members[2]
	alive := func(m string) bool { return m != dead }
	without := buildRing([]string{members[0], members[1], members[3]}, defaultVNodes)
	for _, key := range ringKeys(11, 200) {
		full, _ := r.owner(key, nil)
		got, ok := r.owner(key, alive)
		if !ok || got == dead {
			t.Fatalf("key %q: dead member %s returned as owner (ok=%v)", key, dead, ok)
		}
		if full != dead && got != full {
			t.Fatalf("key %q: survivor-owned key moved %s -> %s", key, full, got)
		}
		if want, _ := without.owner(key, nil); got != want {
			t.Fatalf("key %q: drained owner %s, want %s (ring without %s)", key, got, want, dead)
		}

		skipped := map[string]bool{}
		for len(skipped) < len(members) {
			o, ok := r.owner(key, func(m string) bool { return !skipped[m] })
			if !ok {
				t.Fatalf("key %q: no owner with %d of %d members skipped", key, len(skipped), len(members))
			}
			if skipped[o] {
				t.Fatalf("key %q: skipped member %s returned as owner", key, o)
			}
			skipped[o] = true
		}
		if o, ok := r.owner(key, func(m string) bool { return !skipped[m] }); ok {
			t.Fatalf("key %q: owner %s with every member skipped", key, o)
		}
	}
}

// TestRingEdgeCases covers the degenerate inputs.
func TestRingEdgeCases(t *testing.T) {
	if got, ok := buildRing(nil, defaultVNodes).owner("k", nil); ok || got != "" {
		t.Fatalf("empty ring returned owner %q", got)
	}
	var nilRing *ring
	if got, ok := nilRing.owner("k", nil); ok || got != "" {
		t.Fatalf("nil ring returned owner %q", got)
	}
	one := buildRing([]string{"http://solo:1"}, defaultVNodes)
	if got, ok := one.owner("k", nil); !ok || got != "http://solo:1" {
		t.Fatalf("single-member ring returned %q, %v", got, ok)
	}
	if got, ok := one.owner("k", func(string) bool { return false }); ok || got != "" {
		t.Fatalf("all-dead ring returned %q", got)
	}
}

// TestHashStringIsFinalizedFNV1a pins the inlined hash against the
// stdlib FNV reference plus the splitmix64 finalizer, so a refactor
// cannot silently change every key's placement.
func TestHashStringIsFinalizedFNV1a(t *testing.T) {
	for _, in := range []string{"", "a", "abc", "http://10.0.0.1:8095#17", "\x1f21125\x1findia"} {
		ref := fnv.New64a()
		_, _ = ref.Write([]byte(in))
		if got, want := hashString(in), mix64(ref.Sum64()); got != want {
			t.Errorf("hashString(%q) = %#x, want %#x", in, got, want)
		}
	}
	// The finalizer must spread trailing-digit differences: without it,
	// all of one member's vnode points share their high bits and cluster
	// in one arc (the failure mode that motivated mix64).
	a := hashString("http://10.0.0.1:8095#0") >> 48
	spread := false
	for i := 1; i < 128 && !spread; i++ {
		if hashString(fmt.Sprintf("http://10.0.0.1:8095#%d", i))>>48 != a {
			spread = true
		}
	}
	if !spread {
		t.Fatal("vnode hashes share their top 16 bits; the finalizer is not mixing")
	}
}
