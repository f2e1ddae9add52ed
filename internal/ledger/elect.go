package ledger

import (
	"sort"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

// ElectionResult is the outcome of one Algorithm 1 pass.
type ElectionResult struct {
	// Invalid are current endorsers that failed re-authentication
	// (moved, under-reported, left the region, or were convicted by
	// committed evidence).
	Invalid []gcrypto.Address
	// Qualified are candidates admitted for the next era, best first.
	Qualified []types.EndorserInfo
	// Rejected maps candidate addresses to the reason they failed
	// qualification (diagnostics and tests).
	Rejected map[gcrypto.Address]string
	// Stalled reports that applying the removals would shrink the
	// committee below the policy minimum even after additions; the
	// protocol then keeps the old committee and stops switching, as the
	// paper prescribes the system to halt below the minimum.
	Stalled bool
}

// IsEmpty reports whether the result changes nothing.
func (r *ElectionResult) IsEmpty() bool {
	return len(r.Invalid) == 0 && len(r.Qualified) == 0
}

// RunElection executes Algorithm 1 against the chain's committed state.
// asOf anchors all lookbacks. The chain runs it itself at every era
// boundary (AddBlock), as of the parent of the boundary block; callers
// outside the ledger use it to inspect what the next boundary would do.
func RunElection(c *Chain, asOf time.Time) ElectionResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.electLocked(asOf)
}

// electLocked is RunElection under the caller's lock. It reads committed
// state only, so every honest node computes the identical result at the
// same block: local fork records, which depend on what a node happened
// to receive, take no part (committed evidence expels a double-signer).
//
// Lines 2-14 of the algorithm re-authenticate current endorsers over
// the last era period; lines 15-26 qualify candidates over the
// qualification window.
func (c *Chain) electLocked(asOf time.Time) ElectionResult {
	policy := &c.genesis.Policy
	table := c.table
	// Anchor lookbacks at table time: under load, committed reports
	// lag the head timestamp by the consensus queue delay, and judging
	// devices against wall time would starve everyone. Table time is
	// itself derived from committed state, so it is identical on every
	// honest endorser.
	if tt := table.LatestTimestamp(); !tt.IsZero() && tt.Before(asOf) {
		asOf = tt
	}
	res := ElectionResult{Rejected: make(map[gcrypto.Address]string)}
	banned := func(addr gcrypto.Address) bool {
		_, bad := c.banned[addr]
		return bad && !policy.DisableExpulsion
	}

	// --- lines 2-14: re-authenticate the committee ---
	authSince := asOf.Add(-policy.EraPeriod)
	for _, e := range c.endorsers {
		addr := e.Address
		// Committed evidence outranks the whitelist: a proof of
		// misbehavior is a consensus decision, while the whitelist is
		// only a genesis presumption of honesty.
		if banned(addr) {
			res.Rejected[addr] = "expelled by committed evidence"
			res.Invalid = append(res.Invalid, addr)
			continue
		}
		if policy.Whitelisted(addr) {
			continue // whitelisted endorsers stay without qualification
		}
		g := table.ReportsSince(addr.String(), authSince)
		if reason, ok := disqualify(g, policy); ok {
			res.Rejected[addr] = reason
			res.Invalid = append(res.Invalid, addr)
		}
	}

	// --- lines 15-26: qualify candidates ---
	room := policy.MaxEndorsers - (len(c.endorsers) - len(res.Invalid))
	if room > 0 {
		qualSince := asOf.Add(-policy.QualificationWindow)
		type scored struct {
			info  types.EndorserInfo
			timer time.Duration
		}
		var pool []scored
		for _, addrStr := range table.Devices() {
			addr, err := gcrypto.ParseAddress(addrStr)
			if err != nil {
				continue
			}
			if _, member := c.endorserLocked(addr); member {
				continue
			}
			if policy.Blacklisted(addr) {
				res.Rejected[addr] = "blacklisted"
				continue
			}
			if banned(addr) {
				// Readmission refused: conviction is permanent.
				res.Rejected[addr] = "expelled by committed evidence"
				continue
			}
			pub := c.accounts[addr]
			if pub == nil {
				res.Rejected[addr] = "unknown public key"
				continue
			}
			entry, ok := table.LatestEntry(addrStr)
			if !ok {
				continue
			}
			if policy.Whitelisted(addr) {
				// "Nodes in the whitelist can be identified as
				// endorsers directly without any qualifications."
				pool = append(pool, scored{
					info:  types.EndorserInfo{Address: addr, PubKey: pub, Geohash: entry.CSC.Geohash},
					timer: 1<<62 - 1,
				})
				continue
			}
			g := table.ReportsSince(addrStr, qualSince)
			if reason, bad := disqualify(g, policy); bad {
				res.Rejected[addr] = reason
				continue
			}
			// "An IoT device stays at the same location (has the same
			// CSC) for 72 hours will be elected as an endorser."
			if entry.Timer < policy.QualificationWindow {
				res.Rejected[addr] = "geographic timer below qualification window"
				continue
			}
			// Sybil guard: the CSC cell must have exactly one occupant
			// over the window — "different nodes cannot report the same
			// geographic information at the same time".
			if occ := table.CellOccupants(entry.CSC.Geohash, qualSince); len(occ) > 1 {
				res.Rejected[addr] = "CSC cell contested (possible Sybil)"
				continue
			}
			// Witness supervision (threat model: "nodes can monitor and
			// supervise each other"): when enabled, the claimed cell
			// must be confirmed by enough nearby endorsers, and any
			// credible dispute is disqualifying — this catches liars
			// whose self-reports are perfectly consistent.
			if policy.MinWitnesses > 0 {
				if reason, bad := c.witnessVerdictLocked(addr, entry.CSC.Geohash, qualSince); bad {
					res.Rejected[addr] = reason
					continue
				}
			}
			pool = append(pool, scored{
				info:  types.EndorserInfo{Address: addr, PubKey: pub, Geohash: entry.CSC.Geohash},
				timer: entry.Timer,
			})
		}
		// Longest-resident candidates first (the incentive's loyalty
		// signal), address as the deterministic tiebreak.
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].timer != pool[j].timer {
				return pool[i].timer > pool[j].timer
			}
			return pool[i].info.Address.Less(pool[j].info.Address)
		})
		if len(pool) > room {
			for _, s := range pool[room:] {
				res.Rejected[s.info.Address] = "committee at maximum size"
			}
			pool = pool[:room]
		}
		for _, s := range pool {
			res.Qualified = append(res.Qualified, s.info)
		}
	}

	sort.Slice(res.Invalid, func(i, j int) bool { return res.Invalid[i].Less(res.Invalid[j]) })

	// Below-minimum guard: the paper stops the system under the
	// minimum; we refuse the switch instead so the old committee keeps
	// serving (conservative, documented in DESIGN.md).
	if len(c.endorsers)-len(res.Invalid)+len(res.Qualified) < policy.MinEndorsers {
		return ElectionResult{Stalled: true, Rejected: res.Rejected}
	}
	return res
}

// witnessVerdictLocked evaluates committed witness statements about a
// candidate's claimed cell: only statements from current endorsers
// located within the witness range are credible; one credible dispute
// rejects; fewer than MinWitnesses confirmations rejects.
func (c *Chain) witnessVerdictLocked(subject gcrypto.Address, cell string, since time.Time) (string, bool) {
	policy := &c.genesis.Policy
	cellCenter, err := geo.Decode(cell)
	if err != nil {
		return "unresolvable claimed cell", true
	}
	confirms := make(map[gcrypto.Address]bool)
	for _, st := range c.witnesses.StatementsFor(subject, since) {
		if st.Geohash != cell {
			continue // statement about an older claim
		}
		w, isEndorser := c.endorserLocked(st.Witness)
		if !isEndorser {
			continue // only committee members are credible witnesses
		}
		if policy.WitnessRangeMeters > 0 {
			wPos, err := geo.Decode(w.Geohash)
			if err != nil || wPos.DistanceMeters(cellCenter) > policy.WitnessRangeMeters {
				continue // witness too far away to know
			}
		}
		if !st.Seen {
			return "disputed by witness (claimed location unoccupied)", true
		}
		confirms[st.Witness] = true
	}
	if len(confirms) < policy.MinWitnesses {
		return "insufficient witness confirmations", true
	}
	return "", false
}

// disqualify applies the shared checks of Algorithm 1 to a report
// window: enough reports (Len(G) >= n), no movement (all lng/lat
// equal), and region membership.
func disqualify(g []Entry, policy *AdmittancePolicy) (string, bool) {
	if len(g) < policy.MinReports {
		return "insufficient geographic reports", true
	}
	first := g[0].CSC.Geohash
	for i := 1; i < len(g); i++ {
		if g[i].CSC.Geohash != first {
			return "location changed during window", true
		}
	}
	if !policy.Region.IsZero() {
		pt, err := geo.Decode(first)
		if err != nil || !policy.InRegion(pt) {
			return "outside deployment region", true
		}
	}
	return "", false
}
