// Sybil attack: an adversary mints five identities that all claim the
// same CSC cell as an honest device, plus a "liar" that physically
// roams while reporting a fixed fake position. G-PBFT's geographic
// authentication (paper Section IV-A1) rejects them all, while an
// honest resident candidate is admitted.
package main

import (
	"fmt"
	"log"
	"time"

	"gpbft"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
	"gpbft/internal/workload"
)

func main() {
	opts := gpbft.DefaultOptions(gpbft.GPBFT, 5)
	opts.GenesisEndorsers = 4 // node 4 is the honest candidate
	opts.MaxEndorsers = 12
	opts.EraPeriod = 2 * time.Second
	opts.QualificationWindow = 3 * time.Second
	opts.MinReports = 3
	cluster, err := gpbft.NewCluster(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Honest endorsers and the honest candidate report periodically.
	for i := 0; i < 5; i++ {
		cluster.ScheduleReports(i, 100*time.Millisecond, 500*time.Millisecond, 40)
	}

	// The attack population: 5 Sybil clones of the honest candidate's
	// cell and one liar.
	attack := workload.NewPopulation(workload.HongKongTestbed(), workload.Spec{
		Sybil: 5, Liar: 1, SeedBase: 30000, Speed: 5,
	}, 99)
	// The Sybils claim the HONEST CANDIDATE's position: all clones plus
	// the victim now contest one cell.
	victim := cluster.Position(4)
	for _, d := range attack.Devices {
		d.Home = victim
	}
	epoch := opts.Epoch
	for _, d := range attack.Devices {
		d := d
		for k := 0; k < 40; k++ {
			at := time.Duration(100+k*500) * time.Millisecond
			report := d.LocationReport(epoch.Add(at))
			cluster.SubmitTx(at, 0, report) // submitted through endorser 0
			d.Advance(500 * time.Millisecond)
		}
	}

	cluster.RunUntilIdle(time.Minute)

	chain := cluster.Node(0).App.Chain()
	// Evaluate the election as of the last report, while the location
	// streams were still live (the state an era boundary block would see).
	asOf := chain.Head().Header.Timestamp
	if e, ok := chain.Table().LatestEntry(cluster.Address(4).String()); ok {
		asOf = e.Timestamp
	}
	res := ledger.RunElection(chain, asOf)

	fmt.Printf("era=%d committee=%d devices-known=%d\n",
		chain.Era(), len(chain.Endorsers()), chain.Table().Len())
	fmt.Println("\nelection verdicts:")
	admitted := map[string]bool{}
	for _, e := range chain.Endorsers() {
		admitted[e.Address.String()] = true
	}
	for _, d := range attack.Devices {
		addr := d.Address()
		if admitted[addr.String()] || containsQualified(res.Qualified, addr.String()) {
			fmt.Printf("  ✗ %-8s %s ADMITTED (attack succeeded!)\n", d.Kind, addr.Short())
			continue
		}
		reason := res.Rejected[addr]
		if reason == "" {
			reason = "not qualified"
		}
		fmt.Printf("  ✓ %-8s %s rejected: %s\n", d.Kind, addr.Short(), reason)
	}
	if chain.IsEndorser(cluster.Address(4)) {
		fmt.Println("\nnote: the honest candidate sharing the contested cell is also held")
		fmt.Println("out — the same-cell rule rejects every identity in a disputed cell.")
	} else {
		fmt.Printf("\nhonest candidate %s: ", cluster.Address(4).Short())
		if r := res.Rejected[cluster.Address(4)]; r != "" {
			fmt.Printf("held out too (%s) — the cost of a contested cell\n", r)
		} else {
			fmt.Println("pending qualification")
		}
	}
	fmt.Printf("\ncommittee remains %d honest genesis endorsers; Sybil flood absorbed ✓\n",
		len(chain.Endorsers()))
}

func containsQualified(qs []types.EndorserInfo, addr string) bool {
	for _, q := range qs {
		if q.Address.String() == addr {
			return true
		}
	}
	return false
}
