package gpbft_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// mapOrderSites classifies every range over a map in the non-test code of
// the consensus engine, the era layer, the ledger and the consensus
// primitives by why map order cannot reach what a node sends or stores:
// sorted (the keys are sorted before use), reduce (an order-free fold: a
// count, a minimum, a copy into another map), delete (it deletes entries)
// or lookup (it asks whether any entry qualifies). A site is "file
// Func#n", the n-th such range in a function or method (Recv.Method).
var mapOrderSites = map[string]string{
	"internal/pbft/accountability.go Engine.pruneSeenVotes#1":     "delete",
	"internal/pbft/durable.go Engine.pruneSentVotes#1":            "delete",
	"internal/pbft/durable.go Engine.resendRecoveredVotes#1":      "sorted",
	"internal/pbft/durable.go Engine.restoreDurable#1":            "reduce",
	"internal/pbft/durable.go Engine.restoreDurable#2":            "reduce",
	"internal/pbft/durable.go Engine.restoreDurable#3":            "reduce",
	"internal/pbft/durable.go Engine.restoreDurable#4":            "reduce",
	"internal/pbft/engine.go Engine.InFlight#1":                   "reduce",
	"internal/pbft/engine.go Engine.acceptPrePrepare#1":           "reduce",
	"internal/pbft/engine.go Engine.busy#1":                       "lookup",
	"internal/pbft/engine.go Engine.drainBuffered#1":              "delete",
	"internal/pbft/engine.go Engine.drainBuffered#2":              "sorted",
	"internal/pbft/engine.go Engine.stabilize#1":                  "delete",
	"internal/pbft/viewchange.go Engine.enterNewView#1":           "delete",
	"internal/pbft/viewchange.go Engine.enterNewView#2":           "delete",
	"internal/pbft/viewchange.go Engine.joinableView#1":           "reduce",
	"internal/pbft/viewchange.go Engine.joinableView#2":           "reduce",
	"internal/pbft/viewchange.go Engine.joinableView#3":           "sorted",
	"internal/pbft/viewchange.go Engine.maybeFinishViewChange#1":  "sorted",
	"internal/pbft/viewchange.go Engine.preparedProofs#1":         "sorted",
	"internal/pbft/viewchange.go Engine.reissuedPrePrepares#1":    "sorted",
	"internal/core/sync.go Engine.beginSnapshotFetch#1":           "sorted",
	"internal/core/sync.go Engine.fallbackReplay#1":               "reduce",
	"internal/core/sync.go Engine.onHeadResponse#1":               "reduce",
	"internal/ledger/accountability.go Chain.Banned#1":            "sorted",
	"internal/ledger/accountability.go Chain.maybeSpoofLocked#1":  "sorted",
	"internal/ledger/accountability.go Chain.noteGeoLocked#1":     "sorted",
	"internal/ledger/chainstate.go Chain.exportStateLocked#1":     "sorted",
	"internal/ledger/chainstate.go Chain.exportStateLocked#2":     "sorted",
	"internal/ledger/chainstate.go Chain.exportStateLocked#3":     "sorted",
	"internal/ledger/chainstate.go Chain.exportStateLocked#4":     "sorted",
	"internal/ledger/chainstate.go Chain.exportStateLocked#5":     "sorted",
	"internal/ledger/chainstate.go ElectionTable.exportDevices#1": "sorted",
	"internal/ledger/chainstate.go RewardLedger.exportBalances#1": "sorted",
	"internal/ledger/chainstate.go RewardLedger.exportBalances#2": "sorted",
	"internal/ledger/chainstate.go WitnessIndex.exportRecords#1":  "sorted",
	"internal/ledger/election.go ElectionTable.CellOccupants#1":   "sorted",
	"internal/ledger/election.go ElectionTable.Devices#1":         "sorted",
	"internal/ledger/election.go ElectionTable.Prune#1":           "delete",
	"internal/ledger/election.go ElectionTable.Prune#2":           "delete",
	"internal/ledger/election.go ElectionTable.Prune#3":           "delete",
	"internal/ledger/receipts.go Chain.exportReceiptsLocked#1":    "sorted",
	"internal/ledger/rewards.go RewardLedger.Accounts#1":          "sorted",
	"internal/ledger/rewards.go RewardLedger.TotalDistributed#1":  "reduce",
	"internal/ledger/witness.go WitnessIndex.Prune#1":             "delete",
}

// TestMapRangesAreClassified: map order differs from run to run, so a
// seed is a run only if no range over a map lets that order decide
// anything. Every such range must be classified in mapOrderSites; a new
// one fails until it is, and a listed one that is gone fails until its
// entry is removed.
func TestMapRangesAreClassified(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	found := make(map[string]bool)
	for _, dir := range []string{"internal/pbft", "internal/core", "internal/ledger", "internal/consensus"} {
		for _, site := range mapRanges(t, fset, imp, dir) {
			found[site] = true
			switch mapOrderSites[site] {
			case "sorted", "reduce", "delete", "lookup":
			default:
				t.Errorf("%s ranges over a map and is not classified", site)
			}
		}
	}
	for site := range mapOrderSites {
		if !found[site] {
			t.Errorf("%s is classified but ranges over no map", site)
		}
	}
}

// mapRanges lists the ranges over a map in the non-test code of the
// package in dir.
func mapRanges(t *testing.T, fset *token.FileSet, imp types.Importer, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	if _, err := (&types.Config{Importer: imp}).Check(dir, fset, files, info); err != nil {
		t.Fatal(err)
	}
	var sites []string
	for _, f := range files {
		file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + name
			}
			n := 0
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				if rs, ok := node.(*ast.RangeStmt); ok {
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						n++
						sites = append(sites, fmt.Sprintf("%s %s#%d", file, name, n))
					}
				}
				return true
			})
		}
	}
	return sites
}
