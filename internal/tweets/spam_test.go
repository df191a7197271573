package tweets

import (
	"strings"
	"testing"
)

func TestIsLikelySpam(t *testing.T) {
	cases := []struct {
		text string
		want bool
	}{
		{"get free followers now click http://sp.am/1 #h1n1", true},
		{"WIN A FREE phone!! https://bait.example", true},
		{"free followers mentioned but no link", false},
		{"legit link http://news.example/story about h1n1", false},
		{"@friend let's chat about the flood", false},
		// strings.ToLower maps U+212A KELVIN SIGN to 'k' and U+0130 to 'i'.
		{"clic\u212a http://x.example", true},
		{"w\u0130n a free phone http://x", true},
		{"w\u0130n a free phone, no link", false},
	}
	for _, tc := range cases {
		if got := oracleIsLikelySpam(tc.text); got != tc.want {
			t.Errorf("oracleIsLikelySpam(%q) = %v, want %v", tc.text, got, tc.want)
		}
		// A lone tweet's template recurs once, so only content drops it.
		if got := len(FilterSpam([]Tweet{{Text: tc.text}}, 0)) == 0; got != tc.want {
			t.Errorf("FilterSpam drops %q: %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestFilterSpamByContent(t *testing.T) {
	ts := []Tweet{
		{ID: 1, Author: "a", Text: "@b about the flood #atlflood"},
		{ID: 2, Author: "promo1", Text: "@c get free followers now click http://sp.am/7 #atlflood"},
		{ID: 3, Author: "d", Text: "reading updates"},
	}
	got := FilterSpam(ts, 0)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("FilterSpam = %v", got)
	}
}

func TestFilterSpamByTemplateRepetition(t *testing.T) {
	// A templated lure that evades the bait list: same text modulo
	// victim handle, link suffix and digits.
	var ts []Tweet
	for i := 0; i < 6; i++ {
		ts = append(ts, Tweet{
			ID:     int64(i),
			Author: "bot",
			Text:   "hey @victim" + string(rune('a'+i)) + " amazing deal 4" + string(rune('0'+i)) + " at http://x.yz/" + string(rune('a'+i)),
		})
	}
	// A legit linked article shared twice stays.
	ts = append(ts,
		Tweet{ID: 100, Author: "x", Text: "our flood liveblog http://news.example/flood"},
		Tweet{ID: 101, Author: "y", Text: "our flood liveblog http://news.example/flood"},
	)
	got := FilterSpam(ts, 5)
	if len(got) != 2 || got[0].ID != 100 {
		t.Fatalf("template filter kept %v", got)
	}
}

func TestFilterSpamOnGeneratedCorpus(t *testing.T) {
	opt := H1N1Corpus(0.05, 9)
	raw := Generate(opt)
	clean := FilterSpam(raw, 5)
	removed := len(raw) - len(clean)
	if removed == 0 {
		t.Fatal("no spam removed from corpus with SpamFrac > 0")
	}
	// Removal should be in the rough vicinity of SpamFrac.
	frac := float64(removed) / float64(len(raw))
	if frac < 0.5*opt.SpamFrac || frac > 2*opt.SpamFrac {
		t.Fatalf("removed %.3f of stream, SpamFrac %.3f", frac, opt.SpamFrac)
	}
	for _, tw := range clean {
		if oracleIsLikelySpam(tw.Text) {
			t.Fatalf("spam survived: %q", tw.Text)
		}
	}
	// Spam authors must vanish from the mention graph.
	ug := Build(clean)
	for _, handle := range ug.Names {
		if strings.HasPrefix(handle, "promo") {
			t.Fatalf("spam account %q in clean graph", handle)
		}
	}
}

func TestNormalizeTemplate(t *testing.T) {
	a := string(appendTemplate(nil, "hey @alice deal 42 at http://x.yz/abc now"))
	b := string(appendTemplate(nil, "HEY @bob deal 7 at http://q.rs/zzz now"))
	if a != b {
		t.Fatalf("templates differ:\n%q\n%q", a, b)
	}
	if string(appendTemplate([]byte("kept "), "plain text")) != "kept plain text" {
		t.Fatal("plain text should be unchanged")
	}
}

func TestFilterSpamDefaultThreshold(t *testing.T) {
	ts := []Tweet{{ID: 1, Author: "a", Text: "hello"}}
	if got := FilterSpam(ts, -3); len(got) != 1 {
		t.Fatal("default threshold broke passthrough")
	}
}
