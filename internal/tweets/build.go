package tweets

import (
	"graphct/internal/graph"
	"graphct/internal/rank"
)

// GraphStats summarizes a tweet stream's interaction graph, providing the
// rows of the paper's Table III.
type GraphStats struct {
	Tweets             int   // tweets in the stream
	TweetsWithMentions int   // tweets that mention at least one user
	Users              int   // distinct authors plus mentioned users
	UniqueInteractions int64 // dedup'd directed author->mentioned edges, self loops excluded
	SelfReferences     int   // tweets whose author mentions themself
	Retweets           int   // tweets following the RT @ convention
}

// UserGraph is a tweet stream projected to its user-interaction graph:
// vertices are users, and a directed edge u->v records that u posted a
// message mentioning v ("duplicate user interactions are thrown out").
type UserGraph struct {
	Graph *graph.Graph // directed mention graph
	Names []string     // vertex id -> handle
	Stats GraphStats
	ids   *handleIndex // lower-cased handle -> vertex id, behind Lookup
}

// Build constructs the user-interaction graph of a tweet stream. Handles
// are case-insensitive, and a user's vertex id is the order of its first
// appearance (author before the handles its tweet mentions). Self mentions
// are counted in Stats but excluded from the graph (they carry no
// brokerage information and would perturb the path-based kernels).
//
// Each text is scanned once, and its mention spans are looked up as they
// stand (see handleIndex); a new handle is lowered as it is copied into
// the index's arena. A tweet allocates nothing unless its author holds a
// byte >= 0x80.
func Build(ts []Tweet) *UserGraph {
	ids := newHandleIndex(len(ts))
	edges := make([]graph.Edge, 0, len(ts))
	st := GraphStats{Tweets: len(ts)}
	for _, t := range ts {
		author := ids.intern(foldKey(t.Author))
		if IsRetweet(t.Text) {
			st.Retweets++
		}
		mentioned, self := false, false
		for i := 0; ; {
			lo, hi, h := nextMention(t.Text, i)
			if lo < 0 {
				break
			}
			mentioned = true
			if target := ids.intern(t.Text[lo:hi], h); target == author {
				self = true
			} else {
				edges = append(edges, graph.Edge{U: author, V: target})
			}
			i = hi
		}
		if mentioned {
			st.TweetsWithMentions++
		}
		if self {
			st.SelfReferences++
		}
	}
	ids.seal()
	g, err := graph.FromEdges(len(ids.names), edges, graph.Options{Directed: true})
	if err != nil {
		panic("tweets: interned ids out of range: " + err.Error())
	}
	st.Users = len(ids.names)
	st.UniqueInteractions = g.NumArcs()
	return &UserGraph{Graph: g, Names: ids.names, Stats: st, ids: ids}
}

// Undirected returns the undirected projection used by the path-based
// kernels.
func (ug *UserGraph) Undirected() *graph.Graph { return ug.Graph.Undirected() }

// Lookup returns the vertex for a handle (case-insensitive, as
// strings.ToLower folds it) and whether it exists.
func (ug *UserGraph) Lookup(handle string) (int32, bool) {
	return ug.ids.find(foldKey(handle))
}

// Handles maps a vertex list (e.g. a centrality top-k) back to handles.
func (ug *UserGraph) Handles(vs []int32) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = ug.Names[v]
	}
	return out
}

// MentionCounts returns, per vertex, how many distinct users it mentions
// (out-degree) and is mentioned by (in-degree), for the degree analyses.
func (ug *UserGraph) MentionCounts() (out, in []int64) {
	n := ug.Graph.NumVertices()
	out = make([]int64, n)
	in = make([]int64, n)
	for v := 0; v < n; v++ {
		out[v] = int64(ug.Graph.Degree(int32(v)))
		for _, w := range ug.Graph.Neighbors(int32(v)) {
			in[w]++
		}
	}
	return out, in
}

// TopMentioned returns the k most-mentioned handles (by in-degree),
// the paper's "broadcast vertices" — media and government outlets.
func (ug *UserGraph) TopMentioned(k int) []string {
	_, in := ug.MentionCounts()
	return ug.Handles(rank.Top(in, k))
}
