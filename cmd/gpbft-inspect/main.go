// Command gpbft-inspect dumps a persisted block log (written by
// gpbft-node -data): per-block summaries, transaction breakdowns, the
// committee's evolution across eras, and reward balances. It fully
// re-validates the chain while reading, so it doubles as an integrity
// checker.
//
//	gpbft-inspect -data node0.blk
//	gpbft-inspect -data node0.blk -txs -rewards
//
// The snapshot subcommand decodes one signed era snapshot (a .gsnap
// file from <data>.snap), verifies its framing and producer signature,
// and pretty-prints the state it carries:
//
//	gpbft-inspect snapshot node0.blk.snap/snap-0000000000000042.gsnap
//
// The shards subcommand reads one or more block logs from a
// geo-sharded deployment — region chains and/or the anchor chain — and
// reports the cross-region machinery they carry: region checkpoints in
// commit order, and every transfer receipt's lifecycle status (minted
// by a lock, covered by an anchored checkpoint, applied at the
// destination):
//
//	gpbft-inspect shards anchor.blk region0.blk region1.blk
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/shard"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		if len(os.Args) != 3 {
			fatalf("usage: gpbft-inspect snapshot <file.gsnap>")
		}
		inspectSnapshot(os.Args[2])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shards" {
		if len(os.Args) < 3 {
			fatalf("usage: gpbft-inspect shards <file.blk> [more.blk ...]")
		}
		inspectShards(os.Args[2:])
		return
	}
	var (
		dataPath  = flag.String("data", "", "block-log file (required)")
		committee = flag.Int("committee", 4, "genesis committee size (must match the node's)")
		nodes     = flag.Int("nodes", 0, "total nodes (default = committee)")
		chainID   = flag.String("chain-id", "gpbft-tcp", "chain identifier (must match the node's)")
		eraPeriod = flag.Duration("era", 30*time.Second, "era period (must match the node's)")
		swPeriod  = flag.Duration("switch", 250*time.Millisecond, "switch pause (must match)")
		report    = flag.Duration("report", 5*time.Second, "report period (must match)")
		showTxs   = flag.Bool("txs", false, "print every transaction")
		rewards   = flag.Bool("rewards", false, "print reward balances")
	)
	flag.Parse()
	if *dataPath == "" {
		fatalf("-data is required")
	}
	if *nodes == 0 {
		*nodes = *committee
	}

	// Reconstruct the same deterministic genesis gpbft-node derives.
	epoch := time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)
	g := &ledger.Genesis{ChainID: *chainID, Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	g.Policy.EraPeriod = *eraPeriod
	g.Policy.SwitchPeriod = *swPeriod
	g.Policy.ReportInterval = *report
	g.Policy.QualificationWindow = 3 * *eraPeriod
	if *committee > g.Policy.MaxEndorsers {
		g.Policy.MaxEndorsers = *committee
	}
	for i := 0; i < *committee; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		pos := geo.Point{Lng: 114.175 + float64(i)*0.0004, Lat: 22.302 + float64(i%7)*0.0005}
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(pos, geo.CSCPrecision),
		})
	}

	log, blocks, err := store.Open(*dataPath, store.Options{})
	if err != nil {
		fatalf("%v", err)
	}
	defer log.Close()

	chain, err := ledger.NewChain(g)
	if err != nil {
		fatalf("genesis: %v", err)
	}
	fmt.Printf("block log: %s (%d blocks)\n", *dataPath, len(blocks))
	fmt.Printf("genesis:   chain-id=%s committee=%d hash=%s\n\n",
		*chainID, *committee, g.Hash().Short())

	prevEra := uint64(0)
	kinds := map[types.TxType]int{}
	for _, b := range blocks {
		if err := chain.AddBlock(b); err != nil {
			fatalf("INTEGRITY FAILURE at height %d: %v", b.Header.Height, err)
		}
		certStr := "no-cert"
		if b.Cert != nil {
			certStr = fmt.Sprintf("cert(%d votes)", len(b.Cert.Votes))
		}
		fmt.Printf("height %4d  era %d  view %d  txs %3d  fees %4d  proposer %s  %s\n",
			b.Header.Height, b.Header.Era, b.Header.View, len(b.Txs),
			b.TotalFees(), b.Header.Proposer.Short(), certStr)
		if chain.Era() != prevEra {
			fmt.Printf("  >>> ERA SWITCH to era %d; committee now %d members\n",
				chain.Era(), len(chain.Endorsers()))
			prevEra = chain.Era()
		}
		for i := range b.Txs {
			tx := &b.Txs[i]
			kinds[tx.Type]++
			if *showTxs {
				fmt.Printf("    tx %s  %-15s  from %s  fee %d  at %s\n",
					tx.ID().Short(), tx.Type, tx.Sender.Short(), tx.Fee, tx.Geo.Location)
			}
			if tx.Type == types.TxEvidence {
				// Always surface committed accusations, even without -txs:
				// they are the chain's security events.
				if rec, err := evidence.Decode(tx.Payload); err == nil {
					fmt.Printf("    !! EVIDENCE %s (submitted by %s)\n", rec.Describe(), tx.Sender.Short())
				}
			}
		}
	}

	fmt.Printf("\nsummary: height=%d era=%d committee=%d devices-known=%d witness-stmts=%d\n",
		chain.Height(), chain.Era(), len(chain.Endorsers()),
		chain.Table().Len(), chain.Witnesses().Len())
	fmt.Printf("tx mix:  ")
	for _, k := range []types.TxType{types.TxNormal, types.TxLocationReport, types.TxWitness, types.TxEvidence} {
		fmt.Printf("%s=%d  ", k, kinds[k])
	}
	fmt.Println()
	if forks := chain.Forks(); len(forks) > 0 {
		fmt.Printf("FORK EVIDENCE: %d conflicting proposals recorded (%d total observed)\n", len(forks), chain.ForkCount())
	}
	if banned := chain.Banned(); len(banned) > 0 {
		fmt.Printf("\ndynamic blacklist (%d committed evidence records):\n", chain.EvidenceCount())
		for _, e := range banned {
			fmt.Printf("  %s  convicted by evidence %s\n", e.Address.Short(), e.Evidence.Short())
		}
	}
	if *rewards {
		fmt.Println("\nreward balances:")
		r := chain.Rewards()
		for _, a := range r.Accounts() {
			fmt.Printf("  %s  balance=%6d  blocks=%d\n", a.Short(), r.Balance(a), r.BlocksProduced(a))
		}
		fmt.Printf("  total distributed: %d\n", r.TotalDistributed())
	}
	fmt.Println("\nintegrity: OK (all blocks re-validated)")
}

// inspectSnapshot decodes, verifies and pretty-prints one signed era
// snapshot file. Framing (CRC, exactly one frame) and canonical-codec
// shape are checked by the decoder; the producer signature is verified
// explicitly so a tampered file is reported, not printed as truth.
func inspectSnapshot(path string) {
	snap, err := store.ReadSnapshotFile(path)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	sigStatus := "OK"
	if err := snap.Verify(); err != nil {
		sigStatus = fmt.Sprintf("FAILED (%v)", err)
	}
	st := snap.State
	fmt.Printf("snapshot:  %s\n", path)
	fmt.Printf("checkpoint height=%d era=%d\n", snap.Height(), snap.Era())
	fmt.Printf("root:      %s\n", snap.Root())
	fmt.Printf("genesis:   %s\n", st.GenesisHash.Short())
	fmt.Printf("producer:  %s  signature %s\n", snap.Producer.Short(), sigStatus)
	b := &st.Base
	fmt.Printf("base block: view %d seq %d txs %d proposer %s hash %s\n",
		b.Header.View, b.Header.Seq, len(b.Txs), b.Header.Proposer.Short(), b.Hash().Short())
	fmt.Printf("\ncommittee (%d endorsers):\n", len(st.Endorsers))
	for i := range st.Endorsers {
		e := &st.Endorsers[i]
		fmt.Printf("  %s  cell %s\n", e.Address.Short(), e.Geohash)
	}
	if len(st.Banned) > 0 {
		fmt.Printf("\ndynamic blacklist (%d entries):\n", len(st.Banned))
		for _, e := range st.Banned {
			fmt.Printf("  %s  convicted by evidence %s\n", e.Address.Short(), e.Evidence.Short())
		}
	}
	fmt.Printf("\nstate: accounts=%d devices=%d witness-stmts=%d balances=%d indexed-txs=%d evidence=%d\n",
		len(st.Accounts), len(st.Devices), len(st.Witnesses),
		len(st.Balances), len(st.TxIndex), len(st.Evidence))
	if sigStatus != "OK" {
		fatalf("signature verification failed")
	}
}

// receiptTrace is one transfer receipt's observed lifecycle across the
// inspected logs.
type receiptTrace struct {
	rc       shard.Receipt
	minted   bool // lock seen on a source-region log
	anchored bool // covered by a committed region checkpoint
	applied  bool // apply seen on a destination-region log
	dupes    int  // extra committed applies (benign no-ops)
}

// inspectShards reads raw blocks from every given log (no chain
// re-validation — the logs come from different chains with different
// genesis committees) and reconstructs the cross-region coordination
// state they collectively describe.
func inspectShards(paths []string) {
	traces := make(map[gcrypto.Hash]*receiptTrace)
	trace := func(id gcrypto.Hash) *receiptTrace {
		t, ok := traces[id]
		if !ok {
			t = &receiptTrace{}
			traces[id] = t
		}
		return t
	}
	latest := make(map[string]*shard.RegionCheckpoint)
	checkpoints, locks, applies := 0, 0, 0

	for _, path := range paths {
		log, blocks, err := store.Open(path, store.Options{})
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		fmt.Printf("%s: %d blocks\n", path, len(blocks))
		for _, b := range blocks {
			for i := range b.Txs {
				tx := &b.Txs[i]
				switch tx.Type {
				case types.TxTransferLock:
					tr, err := shard.DecodeTransfer(tx.Payload)
					if err != nil {
						fatalf("%s height %d: bad transfer payload: %v", path, b.Header.Height, err)
					}
					t := trace(tx.ID())
					t.minted = true
					t.rc = shard.Receipt{
						ID: tx.ID(), Source: tr.Source, Dest: tr.Dest,
						Recipient: tr.Recipient, Amount: tr.Amount,
						LockHeight: b.Header.Height,
					}
					locks++
					fmt.Printf("  height %4d  LOCK       %s  %s -> %s  amount %d\n",
						b.Header.Height, tx.ID().Short(), tr.Source, tr.Dest, tr.Amount)
				case types.TxTransferApply:
					rc, err := shard.DecodeReceipt(tx.Payload)
					if err != nil {
						fatalf("%s height %d: bad receipt payload: %v", path, b.Header.Height, err)
					}
					t := trace(rc.ID)
					if t.applied {
						t.dupes++
					}
					t.applied = true
					if !t.minted {
						t.rc = *rc
					}
					applies++
					fmt.Printf("  height %4d  APPLY      %s  credit %s += %d\n",
						b.Header.Height, rc.ID.Short(), rc.Recipient.Short(), rc.Amount)
				case types.TxRegionCheckpoint:
					cp, err := shard.DecodeCheckpoint(tx.Payload)
					if err != nil {
						fatalf("%s height %d: bad checkpoint payload: %v", path, b.Header.Height, err)
					}
					checkpoints++
					if cur, ok := latest[cp.Region]; !ok || cp.Height > cur.Height {
						latest[cp.Region] = cp
					}
					for _, rc := range cp.Receipts {
						t := trace(rc.ID)
						t.anchored = true
						if !t.minted {
							t.rc = rc
						}
					}
					fmt.Printf("  height %4d  CHECKPOINT region %s  era %d  height %d  root %s  receipts %d\n",
						b.Header.Height, cp.Region, cp.Era, cp.Height, cp.Root.Short(), len(cp.Receipts))
				}
			}
		}
		log.Close()
	}

	fmt.Printf("\nanchored region heads (%d checkpoints committed):\n", checkpoints)
	regions := make([]string, 0, len(latest))
	for r := range latest {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	for _, r := range regions {
		cp := latest[r]
		fmt.Printf("  %s  era %d  height %d  root %s\n", r, cp.Era, cp.Height, cp.Root.Short())
	}

	fmt.Printf("\nreceipts (%d locks, %d applies across the given logs):\n", locks, applies)
	ids := make([]gcrypto.Hash, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	for _, id := range ids {
		t := traces[id]
		status := "minted"
		switch {
		case t.applied:
			status = "applied"
		case t.anchored:
			status = "anchored"
		case !t.minted:
			status = "orphan" // applied or anchored on these logs, lock log not given
		}
		extra := ""
		if t.dupes > 0 {
			extra = fmt.Sprintf("  (+%d duplicate applies, credited once)", t.dupes)
		}
		fmt.Printf("  %s  %s -> %s  amount %4d  %-8s%s\n",
			id.Short(), t.rc.Source, t.rc.Dest, t.rc.Amount, status, extra)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpbft-inspect: "+format+"\n", args...)
	os.Exit(1)
}
