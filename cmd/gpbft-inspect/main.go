// Command gpbft-inspect dumps a node's durable directory (written by
// gpbft-node -data): per-block summaries, transaction breakdowns, the
// committee's evolution across eras, and reward balances. It reads the
// directory read-only, as a restart would: from the newest snapshot in
// <data>.snap that the genesis accepts, then the block-log tail above
// it, fully re-validated, so it doubles as an integrity checker. It
// refuses a missing -data path and never creates or changes a file.
//
//	gpbft-inspect -data node0.blk
//	gpbft-inspect -data node0.blk -txs -rewards
//
// The snapshot subcommand decodes one signed era snapshot (a .gsnap
// file from <data>.snap), verifies its framing and producer signature,
// and pretty-prints the state it carries:
//
//	gpbft-inspect snapshot node0.blk.snap/snap-0000000000000042.gsnap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gpbft/internal/assemble"
	"gpbft/internal/evidence"
	"gpbft/internal/ledger"
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
	var (
		dataPath  = flag.String("data", "", "block-log file (required)")
		committee = flag.Int("committee", 4, "genesis committee size (must match the node's)")
		chainID   = flag.String("chain-id", "gpbft-tcp", "chain identifier (must match the node's)")
		protocol  = flag.String("protocol", "gpbft", "pbft or gpbft (must match the node's)")
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
	if *protocol != "pbft" && *protocol != "gpbft" {
		fatalf("unknown -protocol %q", *protocol)
	}

	g := assemble.DeploymentGenesis(*chainID, *protocol, *committee, *eraPeriod, *swPeriod, *report)
	if err := inspectData(os.Stdout, g, *dataPath, *showTxs, *rewards); err != nil {
		fatalf("%v", err)
	}
}

// inspectData reads the durable directory at path read-only, as a
// restart would: from the newest snapshot the genesis accepts, then the
// logged blocks above it, each re-validated and printed.
func inspectData(w io.Writer, g *ledger.Genesis, path string, showTxs, rewards bool) error {
	boot, err := store.LoadDir(store.OS, path, g)
	if err != nil {
		return err
	}
	chain := boot.Chain
	fmt.Fprintf(w, "block log: %s (%d blocks to replay)\n", path, len(boot.Tail))
	fmt.Fprintf(w, "genesis:   chain-id=%s committee=%d hash=%s\n", g.ChainID, len(g.Endorsers), g.Hash().Short())
	if boot.Refused != nil {
		fmt.Fprintf(w, "WARNING:   %v (replaying from genesis)\n", boot.Refused)
	}
	if snap := boot.Snapshot; snap != nil {
		fmt.Fprintf(w, "snapshot:  height=%d era=%d from %s.snap\n", snap.Height(), snap.Era(), path)
	}
	fmt.Fprintln(w)

	prevEra := chain.Era()
	kinds := map[types.TxType]int{}
	for _, b := range boot.Tail {
		if err := chain.AddBlock(b); err != nil {
			return fmt.Errorf("INTEGRITY FAILURE at height %d: %v", b.Header.Height, err)
		}
		certStr := "no-cert"
		if b.Cert != nil {
			certStr = fmt.Sprintf("cert(%d votes)", len(b.Cert.Votes))
		}
		fmt.Fprintf(w, "height %4d  era %d  view %d  txs %3d  fees %4d  proposer %s  %s\n",
			b.Header.Height, b.Header.Era, b.Header.View, len(b.Txs),
			b.TotalFees(), b.Header.Proposer.Short(), certStr)
		if chain.Era() != prevEra {
			fmt.Fprintf(w, "  >>> ERA SWITCH to era %d; committee now %d members\n",
				chain.Era(), len(chain.Endorsers()))
			prevEra = chain.Era()
		}
		for i := range b.Txs {
			tx := &b.Txs[i]
			kinds[tx.Type]++
			if showTxs {
				fmt.Fprintf(w, "    tx %s  %-15s  from %s  fee %d  at %s\n",
					tx.ID().Short(), tx.Type, tx.Sender.Short(), tx.Fee, tx.Geo.Location)
			}
			if tx.Type == types.TxEvidence {
				// Always surface committed accusations, even without -txs:
				// they are the chain's security events.
				if rec, err := evidence.Decode(tx.Payload); err == nil {
					fmt.Fprintf(w, "    !! EVIDENCE %s (submitted by %s)\n", rec.Describe(), tx.Sender.Short())
				}
			}
		}
	}

	fmt.Fprintf(w, "\nsummary: height=%d era=%d committee=%d devices-known=%d witness-stmts=%d\n",
		chain.Height(), chain.Era(), len(chain.Endorsers()),
		chain.Table().Len(), chain.Witnesses().Len())
	fmt.Fprintf(w, "tx mix:  ")
	for _, k := range []types.TxType{types.TxNormal, types.TxLocationReport, types.TxWitness, types.TxEvidence} {
		fmt.Fprintf(w, "%s=%d  ", k, kinds[k])
	}
	fmt.Fprintln(w)
	if forks := chain.Forks(); len(forks) > 0 {
		fmt.Fprintf(w, "FORK EVIDENCE: %d conflicting proposals recorded (%d total observed)\n", len(forks), chain.ForkCount())
	}
	if banned := chain.Banned(); len(banned) > 0 {
		fmt.Fprintf(w, "\ndynamic blacklist (%d committed evidence records):\n", chain.EvidenceCount())
		for _, e := range banned {
			fmt.Fprintf(w, "  %s  convicted by evidence %s\n", e.Address.Short(), e.Evidence.Short())
		}
	}
	if rewards {
		fmt.Fprintln(w, "\nreward balances:")
		r := chain.Rewards()
		for _, a := range r.Accounts() {
			fmt.Fprintf(w, "  %s  balance=%6d  blocks=%d\n", a.Short(), r.Balance(a), r.BlocksProduced(a))
		}
		fmt.Fprintf(w, "  total distributed: %d\n", r.TotalDistributed())
	}
	fmt.Fprintln(w, "\nintegrity: OK (all blocks re-validated)")
	return nil
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpbft-inspect: "+format+"\n", args...)
	os.Exit(1)
}
