# Print the non-test lines of Rust sources, each as `FILE:LINE: text`:
# every line of a file up to its top-level `mod tests`. A test-only
# statement inside a function does not end a file early, so a grep over
# the output sees all of the code that ships.
#
#   awk -f scripts/non_test_lines.awk crates/serve/src/*.rs | grep PATTERN
FNR == 1 { shipped = 1 }
/^mod tests/ { shipped = 0 }
shipped { print FILENAME ":" FNR ": " $0 }
