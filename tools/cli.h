/// \file cli.h
/// The opckit command-line tool, as a testable library.
///
/// Subcommands:
///   stats     --in a.gds [--cell NAME]
///       hierarchy and data-volume report
///   drc       --in a.gds --layer L/D [--min-width N] [--min-space N]
///       morphological design-rule check of one layer (flattened)
///   lint      [--in a.gds] [--deck FILE] [--model] [--codes]
///       opclint static analysis: polygon/hierarchy/GDSII checks on the
///       library, rule-deck sanity, model-parameter bands; --codes lists
///       every diagnostic. Exit 1 when error-severity findings exist.
///   opc       --in a.gds --out b.gds --layer L/D [--cell NAME]
///             [--mode rule|model] [--flow direct|flat|cell] ...
///       correct one layer, write corrected shapes to datatype+1. Each
///       way of running it (direct rule, direct model, the flat/cell
///       flows) refuses the options only another way reads.
///   patterns  --in a.gds --layer L/D [--radius N] [--top K]
///       pattern-catalog summary of one layer
///
/// Each subcommand names the options it takes and refuses any other
/// (exit 2, naming the option). The entry point takes argv-style tokens
/// and streams, so tests can drive it end-to-end without spawning
/// processes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace opckit::cli {

/// Run the tool. Returns the process exit code (0 = success, 2 = usage
/// error, 1 = runtime failure). Output goes to \p out, diagnostics to
/// \p err.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace opckit::cli
