// Streaming and temporal analysis: the paper's Section V direction. The
// synthetic H1N1 stream is replayed week by week, each week's mention
// edges applied to the streaming substrate as one batch and the global
// clustering recounted on the snapshot after it; the temporal package
// tracks how the interaction graph and its most central actors evolve
// across the crisis weeks.
package main

import (
	"fmt"
	"sort"
	"strings"

	"graphct/internal/cluster"
	"graphct/internal/stream"
	"graphct/internal/temporal"
	"graphct/internal/tweets"
)

func main() {
	corpus := tweets.Generate(tweets.H1N1Corpus(0.1, 2009))
	sort.Slice(corpus, func(i, j int) bool { return corpus[i].Week < corpus[j].Week })

	// Build the handle universe up front so streamed edges have ids.
	ug := tweets.Build(corpus)
	st := stream.New(ug.Stats.Users)

	fmt.Println("replaying stream week by week:")
	week := -1
	var batch []stream.Update
	for _, t := range corpus {
		if t.Week != week {
			if week >= 0 {
				applyWeek(st, week, batch)
			}
			week, batch = t.Week, batch[:0]
		}
		author, _ := ug.Lookup(t.Author)
		for _, m := range tweets.Mentions(t.Text) {
			if target, ok := ug.Lookup(m); ok && target != author {
				batch = append(batch, stream.Update{U: author, V: target, Time: t.ID})
			}
		}
	}
	applyWeek(st, week, batch)

	// Temporal snapshots: per-week graphs, top actors and their churn.
	fmt.Println("\nweekly snapshots (isolated windows):")
	snaps := temporal.Analyze(corpus, temporal.Options{TopK: 5, Samples: 128, Seed: 7})
	for _, row := range temporal.Growth(snaps) {
		fmt.Printf("  week %d: %6d tweets %6d users %6d interactions  LWCC %4.0f%%\n",
			row.Week, row.Tweets, row.Users, row.Interactions, 100*row.LWCCShare)
	}
	for i, tv := range temporal.Turnover(snaps) {
		fmt.Printf("  top-5 turnover week %d->%d: %.0f%%\n",
			snaps[i].Week, snaps[i+1].Week, 100*tv)
	}
	fmt.Println("  final week top actors:", strings.Join(snaps[len(snaps)-1].TopActors, ", "))
}

// applyWeek applies one week's mentions as one batch and prints the graph
// after it.
func applyWeek(st *stream.Stream, week int, batch []stream.Update) {
	if _, err := st.ApplyBatch(batch); err != nil {
		panic(err)
	}
	fmt.Printf("  after week %d: %7d edges, global clustering %.5f\n",
		week, st.NumEdges(), cluster.Global(st.Snapshot()))
}
