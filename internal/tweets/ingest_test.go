package tweets

import (
	"bytes"
	"slices"
	"testing"
)

// checkIngest holds FilterSpam and Build to the retired oracle on one
// stream: the filtered slice, the names, every CSR row, the stats, and
// Lookup of every handle in the oracle's map and of every author and
// mention as written.
func checkIngest(t *testing.T, ts []Tweet, dupThreshold int) {
	t.Helper()
	clean, want := FilterSpam(ts, dupThreshold), oracleFilterSpam(ts, dupThreshold)
	if !slices.Equal(clean, want) {
		t.Fatalf("FilterSpam(%d) kept %d tweets, oracle %d:\ngot  %q\nwant %q", dupThreshold, len(clean), len(want), clean, want)
	}
	for _, s := range []struct {
		name   string
		stream []Tweet
	}{{"raw", ts}, {"clean", clean}} {
		ug, og := Build(s.stream), oracleBuild(s.stream)
		if !slices.Equal(ug.Names, og.Names) {
			t.Fatalf("%s: Names = %q, oracle %q", s.name, ug.Names, og.Names)
		}
		if ug.Stats != og.Stats {
			t.Fatalf("%s: Stats = %+v, oracle %+v", s.name, ug.Stats, og.Stats)
		}
		if n := og.Graph.NumVertices(); ug.Graph.NumVertices() != n || ug.Graph.NumArcs() != og.Graph.NumArcs() || !ug.Graph.Directed() {
			t.Fatalf("%s: graph %d vertices %d arcs, oracle %d vertices %d arcs", s.name,
				ug.Graph.NumVertices(), ug.Graph.NumArcs(), n, og.Graph.NumArcs())
		}
		for v := int32(0); int(v) < og.Graph.NumVertices(); v++ {
			if got, want := ug.Graph.Neighbors(v), og.Graph.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("%s: row %d (%q) = %v, oracle %v", s.name, v, og.Names[v], got, want)
			}
		}
		lookup := func(h string) {
			id, ok := ug.Lookup(h)
			wid, wok := og.oracleLookup(h)
			if id != wid || ok != wok {
				t.Fatalf("%s: Lookup(%q) = %d, %v, oracle %d, %v", s.name, h, id, ok, wid, wok)
			}
		}
		for h := range og.IDs {
			lookup(h)
		}
		for _, tw := range s.stream {
			lookup(tw.Author)
			for _, m := range oracleMentions(tw.Text) {
				lookup(m)
			}
		}
		lookup("nobody-at-all")
		lookup("")
	}
}

// hostileTweets is text the byte scan must fold exactly as the strings
// package would: Unicode case mapping into ASCII bait, Unicode spaces
// before a retweet, mentions at the edges, links without a scheme or in
// upper case, digit runs, invalid UTF-8 and handles in mixed case.
var hostileTweets = []Tweet{
	{Author: "a", Text: "clic\u212a http://x.example free"},
	{Author: "b", Text: "w\u0130n a free phone http://x"},
	{Author: "c", Text: "\u00a0RT @Hub news"},
	{Author: "d", Text: "\u0085rt @hub news"},
	{Author: "e", Text: "\u2003RT @hub news"},
	{Author: "f", Text: "trailing @"},
	{Author: "g", Text: "mail user@example.com and @@x and @_"},
	{Author: "h", Text: "http without a scheme, http:/ or https:"},
	{Author: "i", Text: "HTTPS://BAIT.example CLICK HTTP work FROM home"},
	{Author: "j", Text: "deal 123 at http://q/1 and 4567 more @v1"},
	{Author: "k", Text: "deal 9 at http://q/22 and 1 more @v2"},
	{Author: "l", Text: "\xff\xfe@Bad\xc3 \xe2\x84 free followers http://z"},
	{Author: "M\u0130X", Text: "@MiXeD and @mixed and @MIXED"},
	{Author: "", Text: "@ and @x from nobody"},
	{Author: "\u212aelvin", Text: "@kelvin me"},
	{Author: "kelvin", Text: "@KELVIN @Kelvin myself"},
	{Author: "n", Text: "@xhttp://hidden.example click http"},
	{Author: "o", Text: "httpſ://long-s and http\u212a://"},
	{Author: "p", Text: "   "},
	{Author: "q", Text: ""},
}

func TestIngestMatchesOracle(t *testing.T) {
	corpora := []struct {
		name string
		opts CorpusOptions
	}{
		{"h1n1", H1N1Corpus(0.05, 21)},
		{"atlflood", AtlFloodCorpus(1, 22)},
		{"sept1", Sept1Corpus(0.01, 23)},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			ts := Generate(c.opts)
			for _, dup := range []int{0, 2} {
				checkIngest(t, ts, dup)
			}
		})
	}
	t.Run("hostile", func(t *testing.T) {
		var ts []Tweet
		for r := 0; r < 3; r++ {
			ts = append(ts, hostileTweets...)
		}
		for dup := 1; dup <= 6; dup++ {
			checkIngest(t, ts, dup)
		}
	})
}

// FuzzIngestMatchesOracle turns fuzz bytes into a small stream and holds
// the ingest to the oracle on it. The first byte picks the duplicate
// threshold (1..6) and how many times the stream repeats (1..3), so
// templates recur; the rest splits at 0x00 into alternating authors and
// texts.
func FuzzIngestMatchesOracle(f *testing.F) {
	f.Add([]byte("\x07a\x00RT @Hub deal 42 http://x/1\x00b\x00@a click http://y"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		dup, reps := 1+int(data[0]%6), 1+int(data[0]/6%3)
		fields := bytes.Split(data[1:], []byte{0})
		var stream []Tweet
		for i := 0; i+1 < len(fields); i += 2 {
			stream = append(stream, Tweet{ID: int64(i / 2), Author: string(fields[i]), Text: string(fields[i+1])})
		}
		var ts []Tweet
		for r := 0; r < reps; r++ {
			ts = append(ts, stream...)
		}
		checkIngest(t, ts, dup)
	})
}

// TestIngestAllocsDoNotScale pins the ingest's allocations to a count
// that does not grow with the stream: doubling the tweets may add only a
// few (a slice growing past its presize), where one allocation per tweet
// or per mention would add thousands.
func TestIngestAllocsDoNotScale(t *testing.T) {
	small := Generate(Sept1Corpus(0.01, 31))
	large := Generate(Sept1Corpus(0.02, 31))
	allocs := func(ts []Tweet) float64 {
		return testing.AllocsPerRun(3, func() { Build(FilterSpam(ts, 0)) })
	}
	a, b := allocs(small), allocs(large)
	t.Logf("allocations: %.0f for %d tweets, %.0f for %d", a, len(small), b, len(large))
	if b > a+8 {
		t.Fatalf("allocations grew from %.0f to %.0f when the stream grew from %d to %d tweets", a, b, len(small), len(large))
	}
}

func TestFilterKeyword(t *testing.T) {
	ts := []Tweet{
		{ID: 1, Text: "worried about H1N1 tonight"},
		{ID: 2, Text: "#SwineFlu trending"},
		{ID: 3, Text: "lovely weather"},
		{ID: 4, Text: "Die GRİPPE ist da"},
		{ID: 5, Text: "\u212aelvin scale"},
		{ID: 6, Text: "Überschwemmung in Atlanta"},
		{ID: 7, Text: "bad \xff bytes flu"},
	}
	cases := []struct {
		keywords []string
		want     []int64
	}{
		{[]string{"flu", "h1n1"}, []int64{1, 2, 7}},
		{[]string{"FLU"}, []int64{2, 7}},
		{[]string{"grippe"}, []int64{4}},
		{[]string{"GRİPPE"}, []int64{4}},
		{[]string{"kelvin"}, []int64{5}},
		{[]string{"ÜBERSCHWEMMUNG"}, []int64{6}},
		{[]string{"\ufffd"}, []int64{7}},
		{[]string{"", "weather"}, []int64{3}},
		{[]string{""}, nil},
		{nil, nil},
	}
	for _, tc := range cases {
		var got []int64
		for _, tw := range FilterKeyword(ts, tc.keywords) {
			got = append(got, tw.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("FilterKeyword(%q) = %v, want %v", tc.keywords, got, tc.want)
		}
	}
}
