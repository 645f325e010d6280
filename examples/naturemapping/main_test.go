package main

// Example_main compiles and runs the collaborative curation scenario under
// `go test`, pinning its deterministic output: CI now executes every
// example instead of merely hoping it still builds.
func Example_main() {
	main()

	// Output:
	// curation pass: 66 reviews, 14 disputes, 2 higher-order explanations
	//
	// == Open disputes (expert vs. submitted record) ==
	//   s10: DrMoss thinks "gray fox", record says "coyote"
	//   s12: DrMoss thinks "fisher", record says "marten"
	//   s13: DrMoss thinks "lynx", record says "bobcat"
	//   s16: DrMoss thinks "gray fox", record says "red fox"
	//   s20: DrMoss thinks "bobcat", record says "lynx"
	//   s30: DrMoss thinks "gray fox", record says "coyote"
	//   s31: DrMoss thinks "fisher", record says "marten"
	//   s39: DrMoss thinks "lynx", record says "bobcat"
	//   s08: DrReed thinks "marten", record says "fisher"
	//   s31: DrReed thinks "fisher", record says "marten"
	//   s37: DrReed thinks "lynx", record says "bobcat"
	//   s14: DrStone thinks "lynx", record says "bobcat"
	//   s28: DrStone thinks "bobcat", record says "lynx"
	//   s30: DrStone thinks "gray fox", record says "coyote"
	//   (14 disputed records)
	//
	// == Expert disagreements ==
	//   DrMoss vs DrReed on s08: "fisher" vs "marten"
	//   DrMoss vs DrReed on s10: "gray fox" vs "coyote"
	//   DrMoss vs DrReed on s12: "fisher" vs "marten"
	//   DrMoss vs DrReed on s13: "lynx" vs "bobcat"
	//   DrMoss vs DrReed on s16: "gray fox" vs "red fox"
	//   DrMoss vs DrReed on s20: "bobcat" vs "lynx"
	//   DrMoss vs DrReed on s30: "gray fox" vs "coyote"
	//   DrMoss vs DrReed on s37: "bobcat" vs "lynx"
	//   DrMoss vs DrReed on s39: "lynx" vs "bobcat"
	//   DrMoss vs DrStone on s10: "gray fox" vs "coyote"
	//   DrMoss vs DrStone on s12: "fisher" vs "marten"
	//   DrMoss vs DrStone on s13: "lynx" vs "bobcat"
	//   DrMoss vs DrStone on s14: "bobcat" vs "lynx"
	//   DrMoss vs DrStone on s16: "gray fox" vs "red fox"
	//   DrMoss vs DrStone on s20: "bobcat" vs "lynx"
	//   DrMoss vs DrStone on s28: "lynx" vs "bobcat"
	//   DrMoss vs DrStone on s31: "fisher" vs "marten"
	//   DrMoss vs DrStone on s39: "lynx" vs "bobcat"
	//   DrReed vs DrStone on s08: "marten" vs "fisher"
	//   DrReed vs DrStone on s14: "bobcat" vs "lynx"
	//   DrReed vs DrStone on s28: "lynx" vs "bobcat"
	//   DrReed vs DrStone on s30: "coyote" vs "gray fox"
	//   DrReed vs DrStone on s31: "fisher" vs "marten"
	//   DrReed vs DrStone on s37: "lynx" vs "bobcat"
	//   (24 pairs)
	//
	// == Disputes per expert ==
	//   DrMoss     8
	//   DrReed     3
	//   DrStone    3
	//
	// |R*| = 301 rows over 8 tables (n=70 annotations, N=5 states, m=3 users, overhead 4.3)
	//   Notes_star                      2
	//   Notes_v                         2
	//   Sightings_star                 52
	//   Sightings_v                   222
	//   Users                           3
	//   _d                              5
	//   _e                             11
	//   _s                              4
}
