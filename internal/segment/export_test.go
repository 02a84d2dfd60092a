package segment

// The golden fixture, for this package's external tests (package
// segment_test), which exercise a loaded segment together with the star-tree
// it carries and so import startree beside it.
var (
	GoldenSchema  = goldenSchema
	GoldenRows    = goldenRows
	GoldenConfigs = goldenConfigs
)
