package tweets_test

import (
	"fmt"

	"graphct/internal/tweets"
)

func ExampleMentions() {
	fmt.Println(tweets.Mentions("RT @CDCFlu wash your hands! cc @EdMorrissey"))
	fmt.Println(tweets.IsRetweet("RT @ajc river cresting tonight"))
	// Output:
	// [cdcflu edmorrissey]
	// true
}

func ExampleBuild() {
	ug := tweets.Build([]Tweet{
		{ID: 1, Author: "jaketapper", Text: "@dancharles they are more vulnerable to H1N1"},
		{ID: 2, Author: "dancharles", Text: "RT @jaketapper glad I listened to those tips"},
		{ID: 3, Author: "lurker", Text: "just reading the news today"},
	})
	fmt.Println("users:", ug.Stats.Users)
	fmt.Println("unique interactions:", ug.Stats.UniqueInteractions)
	core := ug.Graph.ReciprocalCore()
	fmt.Println("conversation pairs:", core.NumEdges())
	// Output:
	// users: 3
	// unique interactions: 2
	// conversation pairs: 1
}

// Tweet aliases the package type so the example reads naturally.
type Tweet = tweets.Tweet
