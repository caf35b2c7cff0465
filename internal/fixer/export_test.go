package fixer

// Unexported rules, exposed to the external differential test (which
// imports llm, and llm imports this package).
var (
	DropDuplicateEndmodule = dropDuplicateEndmodule
	NormalizeSmartQuotes   = normalizeSmartQuotes
	HoistTimescale         = hoistTimescale
	StripChatProse         = stripChatProse
)
