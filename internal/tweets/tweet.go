// Package tweets models the paper's Twitter pipeline: tweets carrying
// @mentions, a parser that extracts them, a builder that
// turns a tweet stream into the user-to-user interaction graph of Table
// III, and a synthetic corpus generator substituting for the Spinn3r feed —
// it emits the same structural mix the paper describes (broadcast trees,
// conversations, self references and noise) so every downstream analysis
// exercises the same code paths.
package tweets

import "strings"

// Tweet is one microblog message.
type Tweet struct {
	ID     int64
	Author string // handle without the @ prefix
	Text   string
	Week   int // ISO-ish week index, used by the volume analyses
}

// isHandleChar reports whether c may appear in a Twitter handle.
func isHandleChar(c byte) bool {
	return c == '_' ||
		(c >= 'a' && c <= 'z') ||
		(c >= 'A' && c <= 'Z') ||
		(c >= '0' && c <= '9')
}

// Mentions returns the handles mentioned in the text (lowercased, in
// order, duplicates preserved). An '@' must not be preceded by a handle
// character (user@example does not mention "example").
func Mentions(text string) []string {
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

// IsRetweet reports whether the text follows the classic retweet
// convention, "RT @user ...".
func IsRetweet(text string) bool {
	t := strings.TrimSpace(text)
	return len(t) >= 4 && (strings.HasPrefix(t, "RT @") || strings.HasPrefix(t, "rt @"))
}

// HasKeyword reports whether the text contains any of the keywords,
// case-insensitively. Keywords are matched as substrings, as a stream
// harvest would ("flu" matches "#swineflu").
func HasKeyword(text string, keywords []string) bool {
	lower := strings.ToLower(text)
	for _, k := range keywords {
		if k != "" && strings.Contains(lower, strings.ToLower(k)) {
			return true
		}
	}
	return false
}

// FilterKeyword returns the tweets whose text contains any keyword,
// modeling the paper's keyword harvests (flu, h1n1, #atlflood, ...).
func FilterKeyword(ts []Tweet, keywords []string) []Tweet {
	var out []Tweet
	for _, t := range ts {
		if HasKeyword(t.Text, keywords) {
			out = append(out, t)
		}
	}
	return out
}

// FilterWeek returns the tweets within the week range [lo, hi].
func FilterWeek(ts []Tweet, lo, hi int) []Tweet {
	var out []Tweet
	for _, t := range ts {
		if t.Week >= lo && t.Week <= hi {
			out = append(out, t)
		}
	}
	return out
}
