// Package shard partitions the deployment world into geohash-prefix
// regions and defines the cross-region coordination records: signed
// region checkpoints anchored by a top-level committee and the
// receipt-based two-phase transfer path (lock in the source region →
// apply in the destination only after the anchor has committed the
// source checkpoint covering the receipt).
//
// The shard key is the geohash cell itself (internal/geo): a region is
// every point whose geohash shares the region's prefix, so routing a
// transaction is one Encode of its location and region adjacency is
// geo.Neighbors. One shard reproduces the unsharded deployment
// bit-for-bit — the partition only exists when 2+ prefixes are live.
package shard

import (
	"errors"
	"fmt"

	"gpbft/internal/geo"
)

// DefaultPrefixLen is the geohash precision of a simulated deployment's
// region cells: ~4.9 km × 4.9 km at the equator,
// city-district sized — wide enough to hold a full endorser committee,
// narrow enough that intra-region latency stays LAN-like.
const DefaultPrefixLen = 5

// MaxRegions bounds a partition to the base cell plus its 8 geohash
// neighbours. Larger topologies come from composing partitions.
const MaxRegions = 9

// Errors returned by the partitioner.
var (
	ErrBadPrefixLen   = errors.New("shard: prefix length out of range")
	ErrTooManyRegions = fmt.Errorf("shard: more than %d regions", MaxRegions)
)

// KeyOf returns the region key (geohash prefix) of a point.
func KeyOf(p geo.Point, prefixLen int) (string, error) {
	if prefixLen < 1 || prefixLen > geo.MaxGeohashPrecision {
		return "", ErrBadPrefixLen
	}
	return geo.Encode(p, prefixLen)
}

// Partition derives n region prefixes from a seed region: the cell
// containing the seed's center, then its geohash neighbours in
// geo.Neighbors order. Every prefix is a valid deployment region of
// its own (its decode box), and all n are mutually adjacent or equal —
// the hierarchical topology of the Guo/Li/Nejad follow-ups.
func Partition(seed geo.Region, prefixLen, n int) ([]string, error) {
	if n < 1 {
		return nil, errors.New("shard: need at least one region")
	}
	if n > MaxRegions {
		return nil, ErrTooManyRegions
	}
	base, err := KeyOf(seed.Center(), prefixLen)
	if err != nil {
		return nil, err
	}
	cells := []string{base}
	if n > 1 {
		nb, err := geo.Neighbors(base)
		if err != nil {
			return nil, err
		}
		if len(nb) < n-1 {
			return nil, fmt.Errorf("shard: cell %q has only %d neighbours, need %d regions", base, len(nb), n)
		}
		cells = append(cells, nb[:n-1]...)
	}
	return cells, nil
}

// RegionOf returns the deployment box of a region prefix as a
// geo.Region usable in an AdmittancePolicy.
func RegionOf(prefix string) (geo.Region, error) {
	box, err := geo.DecodeBox(prefix)
	if err != nil {
		return geo.Region{}, err
	}
	return geo.NewRegion(
		geo.Point{Lng: box.MinLng, Lat: box.MinLat},
		geo.Point{Lng: box.MaxLng, Lat: box.MaxLat},
	), nil
}

// Bound returns the smallest region covering all the given prefixes —
// the anchor committee's admittance region (delegates are physically
// deployed inside their home cells).
func Bound(prefixes []string) (geo.Region, error) {
	if len(prefixes) == 0 {
		return geo.Region{}, errors.New("shard: no prefixes")
	}
	var out geo.Region
	for i, p := range prefixes {
		r, err := RegionOf(p)
		if err != nil {
			return geo.Region{}, err
		}
		if i == 0 {
			out = r
			continue
		}
		if r.MinLng < out.MinLng {
			out.MinLng = r.MinLng
		}
		if r.MinLat < out.MinLat {
			out.MinLat = r.MinLat
		}
		if r.MaxLng > out.MaxLng {
			out.MaxLng = r.MaxLng
		}
		if r.MaxLat > out.MaxLat {
			out.MaxLat = r.MaxLat
		}
	}
	return out, nil
}

// Router maps points to region indices by geohash prefix.
type Router struct {
	prefixLen int
	index     map[string]int
}

// NewRouter builds a router over the partition's prefixes. All
// prefixes must share one length.
func NewRouter(prefixes []string) (*Router, error) {
	if len(prefixes) == 0 {
		return nil, errors.New("shard: empty partition")
	}
	r := &Router{prefixLen: len(prefixes[0]), index: make(map[string]int, len(prefixes))}
	for i, p := range prefixes {
		if len(p) != r.prefixLen || !geo.Valid(p) {
			return nil, fmt.Errorf("shard: bad region prefix %q", p)
		}
		if _, dup := r.index[p]; dup {
			return nil, fmt.Errorf("shard: duplicate region prefix %q", p)
		}
		r.index[p] = i
	}
	return r, nil
}

// Route returns the region index owning the point.
func (r *Router) Route(p geo.Point) (int, bool) {
	key, err := geo.Encode(p, r.prefixLen)
	if err != nil {
		return 0, false
	}
	i, ok := r.index[key]
	return i, ok
}

// RouteKey returns the region index of a prefix.
func (r *Router) RouteKey(prefix string) (int, bool) {
	i, ok := r.index[prefix]
	return i, ok
}
