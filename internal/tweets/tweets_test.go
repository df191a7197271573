package tweets

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMentions(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"@foo hello @Bar", []string{"foo", "bar"}},
		{"no mentions here", nil},
		{"email user@example.com is not a mention", nil},
		{"@a@b chained", []string{"a"}}, // "@b" is email-like, not a mention
		{"punct (@paren) [@brack]", []string{"paren", "brack"}},
		{"trailing @", nil},
		{"@under_score9 ok", []string{"under_score9"}},
		{"RT @hub story time", []string{"hub"}},
		{"@dup and @dup again", []string{"dup", "dup"}},
	}
	for _, tc := range cases {
		got := Mentions(tc.text)
		if len(got) != len(tc.want) {
			t.Errorf("Mentions(%q) = %v, want %v", tc.text, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Mentions(%q) = %v, want %v", tc.text, got, tc.want)
			}
		}
	}
}

func TestIsRetweet(t *testing.T) {
	if !IsRetweet("RT @cnn big news") || !IsRetweet("  rt @cnn lower") {
		t.Fatal("retweet not detected")
	}
	if IsRetweet("@cnn RT this please") || IsRetweet("RT without mention") {
		t.Fatal("false retweet")
	}
}

func TestHasKeywordAndFilter(t *testing.T) {
	ts := []Tweet{
		{ID: 1, Author: "a", Text: "worried about H1N1 tonight"},
		{ID: 2, Author: "b", Text: "lovely weather"},
		{ID: 3, Author: "c", Text: "#swineflu trending"},
	}
	got := FilterKeyword(ts, []string{"flu", "h1n1"})
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("FilterKeyword = %v", got)
	}
	if got := FilterKeyword(ts, []string{""}); len(got) != 0 {
		t.Fatal("empty keyword matched")
	}
}

func TestFilterWeek(t *testing.T) {
	ts := []Tweet{{ID: 1, Week: 36}, {ID: 2, Week: 38}, {ID: 3, Week: 40}}
	got := FilterWeek(ts, 37, 39)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("FilterWeek = %v", got)
	}
}

func TestBuildBasic(t *testing.T) {
	ts := []Tweet{
		{ID: 1, Author: "Alice", Text: "hi @bob and @carol"},
		{ID: 2, Author: "bob", Text: "@alice hello back"},
		{ID: 3, Author: "carol", Text: "no mentions"},
		{ID: 4, Author: "dave", Text: "@dave talking to myself"},
		{ID: 5, Author: "alice", Text: "hi @bob again"}, // duplicate interaction
	}
	ug := Build(ts)
	st := ug.Stats
	if st.Tweets != 5 || st.TweetsWithMentions != 4 || st.SelfReferences != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Users != 4 {
		t.Fatalf("users = %d, want 4", st.Users)
	}
	// alice->bob (dedup'd), alice->carol, bob->alice; dave self loop dropped.
	if st.UniqueInteractions != 3 {
		t.Fatalf("interactions = %d, want 3", st.UniqueInteractions)
	}
	a, _ := ug.Lookup("ALICE")
	b, _ := ug.Lookup("bob")
	if !ug.Graph.HasEdge(a, b) || !ug.Graph.HasEdge(b, a) {
		t.Fatal("mention edges missing")
	}
	if _, ok := ug.Lookup("nobody"); ok {
		t.Fatal("phantom user")
	}
}

func TestBuildCaseInsensitive(t *testing.T) {
	ug := Build([]Tweet{
		{ID: 1, Author: "Foo", Text: "@BAR hello"},
		{ID: 2, Author: "foo", Text: "@bar again"},
	})
	if ug.Stats.Users != 2 || ug.Stats.UniqueInteractions != 1 {
		t.Fatalf("case handling wrong: %+v", ug.Stats)
	}
}

func TestBuildEmpty(t *testing.T) {
	ug := Build(nil)
	if ug.Stats.Users != 0 || ug.Graph.NumVertices() != 0 {
		t.Fatal("empty build wrong")
	}
}

func TestHandles(t *testing.T) {
	ug := Build([]Tweet{{ID: 1, Author: "a", Text: "@b yo"}})
	hs := ug.Handles([]int32{1, 0})
	if hs[0] != "b" || hs[1] != "a" {
		t.Fatalf("Handles = %v", hs)
	}
}

func TestMentionCountsAndTopMentioned(t *testing.T) {
	ug := Build([]Tweet{
		{ID: 1, Author: "u1", Text: "RT @hub news"},
		{ID: 2, Author: "u2", Text: "RT @hub news"},
		{ID: 3, Author: "u3", Text: "RT @hub news"},
		{ID: 4, Author: "u1", Text: "@u2 chat"},
	})
	out, in := ug.MentionCounts()
	hub, _ := ug.Lookup("hub")
	if in[hub] != 3 || out[hub] != 0 {
		t.Fatalf("hub counts in=%d out=%d", in[hub], out[hub])
	}
	top := ug.TopMentioned(1)
	if len(top) != 1 || top[0] != "hub" {
		t.Fatalf("TopMentioned = %v", top)
	}
	if got := ug.TopMentioned(100); len(got) != ug.Stats.Users {
		t.Fatal("TopMentioned clamp failed")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opt := AtlFloodCorpus(0.2, 42)
	a := Generate(opt)
	b := Generate(opt)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tweet %d differs", i)
		}
	}
}

func TestGenerateMix(t *testing.T) {
	ts := Generate(H1N1Corpus(0.1, 7))
	if len(ts) == 0 {
		t.Fatal("no tweets generated")
	}
	var rts, convs, selfs, plain int
	for _, tw := range ts {
		ms := Mentions(tw.Text)
		switch {
		case IsRetweet(tw.Text):
			rts++
		case len(ms) == 1 && ms[0] == strings.ToLower(tw.Author):
			selfs++
		case len(ms) > 0:
			convs++
		default:
			plain++
		}
		if len(FilterKeyword([]Tweet{tw}, []string{"h1n1"})) == 0 {
			t.Fatalf("off-topic tweet %q", tw.Text)
		}
		if tw.Week < 36 || tw.Week > 39 {
			t.Fatalf("week %d out of range", tw.Week)
		}
	}
	n := float64(len(ts))
	if float64(rts)/n < 0.3 || float64(rts)/n > 0.55 {
		t.Fatalf("retweet fraction %v off target", float64(rts)/n)
	}
	if convs == 0 || selfs == 0 || plain == 0 {
		t.Fatalf("missing message kinds: conv=%d self=%d plain=%d", convs, selfs, plain)
	}
}

func TestGenerateGraphShape(t *testing.T) {
	ug := Build(Generate(H1N1Corpus(0.1, 3)))
	if ug.Stats.Users < 100 {
		t.Fatalf("too few users: %d", ug.Stats.Users)
	}
	// Hubs dominate in-degree: the most mentioned user should hold far
	// more than the mean.
	_, in := ug.MentionCounts()
	var max, sum int64
	for _, c := range in {
		sum += c
		if c > max {
			max = c
		}
	}
	if float64(max) < 10*float64(sum)/float64(len(in)) {
		t.Fatalf("no broadcast hubs: max in-degree %d, mean %f", max, float64(sum)/float64(len(in)))
	}
	// Reciprocal core exists (conversations) and is much smaller.
	core := ug.Graph.ReciprocalCore()
	coreEdges := core.NumEdges()
	if coreEdges == 0 {
		t.Fatal("no conversations in corpus")
	}
	if coreEdges*10 > ug.Graph.NumArcs() {
		t.Fatalf("reciprocal core too large: %d of %d", coreEdges, ug.Graph.NumArcs())
	}
	if ug.Stats.SelfReferences == 0 {
		t.Fatal("no self references")
	}
}

func TestGenerateDegenerateOptions(t *testing.T) {
	ts := Generate(CorpusOptions{Seed: 1, Users: 0, Hubs: 0, Tweets: 10, Topic: "x", ConvFrac: 1})
	if len(ts) != 10 {
		t.Fatalf("degenerate options produced %d tweets", len(ts))
	}
	Build(ts) // must not panic
}

func TestPaperTableII(t *testing.T) {
	weeks, articles := PaperTableII()
	if len(weeks) != 8 || len(articles) != 8 {
		t.Fatal("table II shape wrong")
	}
	if articles[1] != 108038 {
		t.Fatal("table II values wrong")
	}
}

func TestModelTableIIShape(t *testing.T) {
	weeks, articles := ModelTableII()
	if len(weeks) != 8 {
		t.Fatal("model weeks wrong")
	}
	// Shape assertions mirroring the paper: spike at week 18, monotone
	// decay through week 21, echo bump at week 22, decline after.
	peak := 1
	for i, a := range articles {
		if a > articles[peak] {
			peak = i
		}
	}
	if weeks[peak] != 18 {
		t.Fatalf("peak at week %d, want 18", weeks[peak])
	}
	if !(articles[1] > articles[2] && articles[2] > articles[3] && articles[3] > articles[4]) {
		t.Fatalf("no monotone decay: %v", articles)
	}
	if !(articles[5] > articles[4] && articles[5] > articles[6]) {
		t.Fatalf("no echo bump at week 22: %v", articles)
	}
	if articles[0] >= articles[1]/5 {
		t.Fatalf("week 17 should be far below the spike: %v", articles)
	}
}

func TestModelVolumePreOutbreak(t *testing.T) {
	if ModelVolume(10, 17) >= ModelVolume(17, 17) {
		t.Fatal("pre-outbreak volume should be lowest")
	}
}

func TestExampleConversation(t *testing.T) {
	conv := ExampleConversation("h1n1")
	if len(conv) < 4 {
		t.Fatal("conversation too short")
	}
	ug := Build(conv)
	core := ug.Graph.ReciprocalCore()
	if core.NumEdges() == 0 {
		t.Fatal("example conversation has no reciprocal pair")
	}
}

// Property: Mentions never returns handles containing illegal characters
// and every extracted handle actually appears in the text.
func TestPropertyMentionsWellFormed(t *testing.T) {
	f := func(raw string) bool {
		for _, m := range Mentions(raw) {
			if m == "" {
				return false
			}
			for i := 0; i < len(m); i++ {
				if !isHandleChar(m[i]) {
					return false
				}
			}
			if !strings.Contains(strings.ToLower(raw), "@"+m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Build's unique interaction count never exceeds total mention
// instances and the graph validates.
func TestPropertyBuildConsistent(t *testing.T) {
	f := func(seed int64) bool {
		ts := Generate(AtlFloodCorpus(0.1, seed))
		ug := Build(ts)
		if ug.Graph.Validate() != nil {
			return false
		}
		var mentionInstances int64
		for _, tw := range ts {
			mentionInstances += int64(len(Mentions(tw.Text)))
		}
		return ug.Stats.UniqueInteractions <= mentionInstances
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
