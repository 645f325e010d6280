package wire

// SetPanicHook installs (nil: removes) the hook every Endpoint in the
// process runs before dispatching a request — how the lifecycle tests make
// a handler blow up on cue.
func SetPanicHook(hook func(req Msg)) { panicHook = hook }
