package tweets

import (
	"strings"

	"graphct/internal/graph"
)

// The strings-based spam filter and mention-graph build that the one-scan
// ingest replaced, kept as the reference the tests hold it equal to. Each
// body is the retired code with only the names of the functions it calls
// changed; oracleBuild's handle map is its IDs, and oracleMentions is the
// mention parser Build used to call.

// oracleIsLikelySpam flags a single tweet by content: a link plus bait phrasing.
func oracleIsLikelySpam(text string) bool {
	lower := strings.ToLower(text)
	if !strings.Contains(lower, "http://") && !strings.Contains(lower, "https://") {
		return false
	}
	for _, bait := range spamBait {
		if strings.Contains(lower, bait) {
			return true
		}
	}
	return false
}

// oracleFilterSpam removes likely spam from a stream: content-flagged tweets
// and linked tweets whose normalized template recurs at least dupThreshold
// times (template spam evades phrase lists but not repetition).
// dupThreshold <= 0 uses 5.
func oracleFilterSpam(ts []Tweet, dupThreshold int) []Tweet {
	if dupThreshold <= 0 {
		dupThreshold = 5
	}
	counts := make(map[string]int)
	for _, t := range ts {
		if oracleHasLink(t.Text) {
			counts[oracleNormalizeTemplate(t.Text)]++
		}
	}
	out := make([]Tweet, 0, len(ts))
	for _, t := range ts {
		if oracleIsLikelySpam(t.Text) {
			continue
		}
		if oracleHasLink(t.Text) && counts[oracleNormalizeTemplate(t.Text)] >= dupThreshold {
			continue
		}
		out = append(out, t)
	}
	return out
}

func oracleHasLink(text string) bool {
	lower := strings.ToLower(text)
	return strings.Contains(lower, "http://") || strings.Contains(lower, "https://")
}

// oracleNormalizeTemplate collapses the variable parts of templated spam:
// mentions, links and digits are replaced by placeholders so repeated
// templates hash identically.
func oracleNormalizeTemplate(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	i := 0
	for i < len(text) {
		switch {
		case text[i] == '@':
			b.WriteByte('@')
			i++
			for i < len(text) && isHandleChar(text[i]) {
				i++
			}
		case oracleHasPrefixAt(text, i, "http://"), oracleHasPrefixAt(text, i, "https://"):
			b.WriteString("URL")
			for i < len(text) && text[i] != ' ' {
				i++
			}
		case text[i] >= '0' && text[i] <= '9':
			b.WriteByte('#')
			for i < len(text) && text[i] >= '0' && text[i] <= '9' {
				i++
			}
		default:
			b.WriteByte(lowerByte(text[i]))
			i++
		}
	}
	return b.String()
}

func oracleHasPrefixAt(s string, i int, prefix string) bool {
	return len(s)-i >= len(prefix) && strings.EqualFold(s[i:i+len(prefix)], prefix)
}

// oracleMentions returns the handles mentioned in the text (lowercased, in
// order, duplicates preserved). An '@' must not be preceded by a handle
// character (user@example does not mention "example").
func oracleMentions(text string) []string {
	var out []string
	for i := 0; i < len(text); i++ {
		if text[i] != '@' {
			continue
		}
		if i > 0 && isHandleChar(text[i-1]) {
			continue
		}
		j := i + 1
		for j < len(text) && isHandleChar(text[j]) {
			j++
		}
		if j > i+1 {
			out = append(out, strings.ToLower(text[i+1:j]))
		}
		i = j - 1
	}
	return out
}

// oracleUserGraph is what oracleBuild returns: the graph, names and stats
// of a UserGraph plus the handle map its Lookup answered from.
type oracleUserGraph struct {
	Graph *graph.Graph
	Names []string
	IDs   map[string]int32
	Stats GraphStats
}

// oracleLookup returns the vertex for a handle (case-insensitive) and
// whether it exists.
func (ug *oracleUserGraph) oracleLookup(handle string) (int32, bool) {
	id, ok := ug.IDs[strings.ToLower(handle)]
	return id, ok
}

// oracleBuild constructs the user-interaction graph of a tweet stream.
// Handles are case-insensitive. Self mentions are counted in Stats but
// excluded from the graph (they carry no brokerage information and would
// perturb the path-based kernels).
func oracleBuild(ts []Tweet) *oracleUserGraph {
	ids := make(map[string]int32)
	var names []string
	intern := func(handle string) int32 {
		h := strings.ToLower(handle)
		if id, ok := ids[h]; ok {
			return id
		}
		id := int32(len(names))
		ids[h] = id
		names = append(names, h)
		return id
	}
	var edges []graph.Edge
	st := GraphStats{Tweets: len(ts)}
	for _, t := range ts {
		author := intern(t.Author)
		mentions := oracleMentions(t.Text)
		if len(mentions) > 0 {
			st.TweetsWithMentions++
		}
		if IsRetweet(t.Text) {
			st.Retweets++
		}
		self := false
		for _, m := range mentions {
			target := intern(m)
			if target == author {
				self = true
				continue
			}
			edges = append(edges, graph.Edge{U: author, V: target})
		}
		if self {
			st.SelfReferences++
		}
	}
	g, err := graph.FromEdges(len(names), edges, graph.Options{Directed: true})
	if err != nil {
		panic("tweets: interned ids out of range: " + err.Error())
	}
	st.Users = len(names)
	st.UniqueInteractions = g.NumArcs()
	return &oracleUserGraph{Graph: g, Names: names, IDs: ids, Stats: st}
}
