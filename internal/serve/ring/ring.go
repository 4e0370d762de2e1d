package ring

import (
	"fmt"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per member. 128 points per worker
// keeps the 8-worker / 1k-session distribution within ±35% of the mean
// (pinned by the distribution test) while membership changes stay
// O(replicas · log points).
const replicas = 128

// point is one virtual node: a position on the 64-bit hash circle owned by
// a member.
type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash circle assigning string keys (session IDs) to
// members (workers). Hashing is FNV-1a 64 computed in-package, so
// assignments are a pure function of the membership set — stable across
// processes, architectures, and Go versions (the golden-fixture test pins
// them). The zero Ring is not usable; call New.
//
// Ring is not safe for concurrent use; the control plane guards it with
// its registry mutex.
type Ring struct {
	points  []point // sorted by (hash, member)
	members map[string]bool
}

// New builds an empty ring.
func New() *Ring {
	return &Ring{members: make(map[string]bool)}
}

// fnv1a is the 64-bit FNV-1a hash of s, passed through a splitmix64-style
// finalizer. Raw FNV-1a of short, similar strings ("s-1", "s-2", "w-1#0")
// varies mostly in its low bits, which would cluster every virtual node of
// a member into one arc of the circle; the finalizer's avalanche spreads
// them uniformly. Inlined rather than hash/fnv so the hot Owner path
// allocates nothing.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// splitmix64 finalizer (Stafford mix 13).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash places one virtual node: the member name joined with the
// replica index under a separator no member name can contain ambiguously.
func pointHash(member string, replica int) uint64 {
	return fnv1a(member + "#" + strconv.Itoa(replica))
}

// Add inserts a member's virtual nodes. Adding an existing member is an
// error: the caller's registry is the source of truth and a silent re-add
// would mask a bookkeeping bug.
func (r *Ring) Add(member string) error {
	if member == "" {
		return fmt.Errorf("ring: empty member name")
	}
	if r.members[member] {
		return fmt.Errorf("ring: member %q already present", member)
	}
	r.members[member] = true
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, point{pointHash(member, i), member})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return nil
}

// Remove deletes a member and its virtual nodes. Removing an absent member
// is an error for the same reason a double Add is.
func (r *Ring) Remove(member string) error {
	if !r.members[member] {
		return fmt.Errorf("ring: member %q not present", member)
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Has reports membership.
func (r *Ring) Has(member string) bool { return r.members[member] }

// Owner returns the member owning a key: the first virtual node at or
// clockwise of the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}
