// Command fixture is the corpus's one program. Its main references every
// function of the other rules' fixtures under internal/ and of detutil, so
// the deadcode rule judges only its own fixture (internal/deadcode), and it
// calls deadcode.Live: main and whatever it reaches are never flagged.
package main

import (
	"fixture/detutil"
	"fixture/internal/deadcode"
	"fixture/internal/obs"
	"fixture/internal/serve"
	"fixture/internal/serve/control"
	"fixture/internal/stats"
	"fixture/internal/streamrisk"
)

func main() {
	deadcode.Live()
	_ = []any{
		obs.Drop, obs.Kept, obs.Best,
		detutil.Stamp, detutil.Draw, detutil.StampAllowed,
		serve.Leaks, serve.ReturnsWhileHeld, serve.SendsUnderShard, serve.WritesUnderShard,
		serve.DeferDiscipline, serve.DeferClosure, serve.Paired, serve.NonShardSend, serve.Reviewed,
		control.PlaceLeaks, control.ReconcileLeaks,
		stats.Same, stats.Differs, stats.Mixed, stats.Close, stats.SameInt, stats.ExactZero,
		streamrisk.SendsUnderEngine, streamrisk.WritesUnderEngine, streamrisk.SameScore,
		streamrisk.Publish, streamrisk.FoldThenPublish, streamrisk.ZeroGuard,
	}
}
