// Package geo implements the geographic substrate of G-PBFT: WGS-84
// points, a full geohash codec, Crypto-Spatial Coordinates (CSC) that
// bind a location to a chain address, distances, and rectangular
// deployment regions.
//
// The paper (Section II-C) models a piece of geographic information as
// the triple <longitude, latitude, timestamp>; Section III-B3 associates
// it with a blockchain address through a CSC, "a hierarchical standard"
// whose resolution is about one square metre.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// Earth's mean radius in metres, used by Haversine distance.
const earthRadiusMeters = 6371000.0

// Errors returned by point validation.
var (
	ErrLatitudeRange  = errors.New("geo: latitude out of range [-90, 90]")
	ErrLongitudeRange = errors.New("geo: longitude out of range [-180, 180]")
)

// Point is a WGS-84 coordinate. Longitude first, mirroring the paper's
// <longitude, latitude, timestamp> ordering.
type Point struct {
	Lng float64
	Lat float64
}

// NewPoint validates the coordinates and returns the point.
func NewPoint(lng, lat float64) (Point, error) {
	p := Point{Lng: lng, Lat: lat}
	return p, p.Validate()
}

// Validate reports whether the point lies on the globe.
func (p Point) Validate() error {
	if math.IsNaN(p.Lat) || p.Lat < -90 || p.Lat > 90 {
		return ErrLatitudeRange
	}
	if math.IsNaN(p.Lng) || p.Lng < -180 || p.Lng > 180 {
		return ErrLongitudeRange
	}
	return nil
}

// String renders the point as "(lng, lat)" with six decimals (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lng, p.Lat)
}

// Equal reports exact coordinate equality. The paper's Algorithm 1
// compares reported locations for strict equality (lines 9 and 21), so
// no epsilon is applied here; use DistanceMeters for tolerant checks.
func (p Point) Equal(q Point) bool {
	return p.Lng == q.Lng && p.Lat == q.Lat
}

// DistanceMeters returns the Haversine great-circle distance to q.
func (p Point) DistanceMeters(q Point) float64 {
	lat1 := p.Lat * math.Pi / 180
	lat2 := q.Lat * math.Pi / 180
	dLat := (q.Lat - p.Lat) * math.Pi / 180
	dLng := (q.Lng - p.Lng) * math.Pi / 180

	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLng/2)*math.Sin(dLng/2)
	c := 2 * math.Atan2(math.Sqrt(a), math.Sqrt(1-a))
	return earthRadiusMeters * c
}

// Region is a rectangular (lng/lat aligned) deployment area. The paper's
// threat model assumes "all IoT devices ... are worked within a small
// physical area", so geographic authentication rejects reports outside
// the region configured in the genesis block.
type Region struct {
	MinLng, MinLat float64
	MaxLng, MaxLat float64
}

// NewRegion builds a region from two corners, normalising their order.
func NewRegion(a, b Point) Region {
	return Region{
		MinLng: math.Min(a.Lng, b.Lng),
		MinLat: math.Min(a.Lat, b.Lat),
		MaxLng: math.Max(a.Lng, b.Lng),
		MaxLat: math.Max(a.Lat, b.Lat),
	}
}

// Contains reports whether p lies inside the region (inclusive).
func (r Region) Contains(p Point) bool {
	return p.Lng >= r.MinLng && p.Lng <= r.MaxLng &&
		p.Lat >= r.MinLat && p.Lat <= r.MaxLat
}

// Center returns the midpoint of the region.
func (r Region) Center() Point {
	return Point{Lng: (r.MinLng + r.MaxLng) / 2, Lat: (r.MinLat + r.MaxLat) / 2}
}

// WidthMeters approximates the east-west extent at the region's centre.
func (r Region) WidthMeters() float64 {
	c := r.Center()
	return Point{Lng: r.MinLng, Lat: c.Lat}.DistanceMeters(Point{Lng: r.MaxLng, Lat: c.Lat})
}

// HeightMeters approximates the north-south extent.
func (r Region) HeightMeters() float64 {
	c := r.Center()
	return Point{Lng: c.Lng, Lat: r.MinLat}.DistanceMeters(Point{Lng: c.Lng, Lat: r.MaxLat})
}

// Grid spreads n points over the region, row-major, on a square grid
// of ceil(sqrt(n)) columns inset one step from every edge.
func (r Region) Grid(n int) []Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	dLng := (r.MaxLng - r.MinLng) / float64(cols+1)
	dLat := (r.MaxLat - r.MinLat) / float64(cols+1)
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{Lng: r.MinLng + dLng*float64(i%cols+1), Lat: r.MinLat + dLat*float64(i/cols+1)}
	}
	return out
}

// IsZero reports whether the region is the zero value (no constraint).
func (r Region) IsZero() bool {
	return r.MinLng == 0 && r.MinLat == 0 && r.MaxLng == 0 && r.MaxLat == 0
}
