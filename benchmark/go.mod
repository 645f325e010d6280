module beliefdb/benchmark

go 1.24

require beliefdb v0.0.0

replace beliefdb => ../
