#include "lint/diagnostic.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/table.h"

namespace opckit::lint {

namespace {

// Registry of every diagnostic opclint can emit, grouped by domain.
// Order is the presentation order of `opckit lint --codes` and of the
// DESIGN.md code listing; keep new codes at the end of their group.
constexpr CodeInfo kCodes[] = {
    // Polygon well-formedness.
    {"LAY001", Severity::kError, "self-intersecting polygon ring",
     "split the ring at the crossing into simple polygons"},
    {"LAY002", Severity::kError,
     "degenerate polygon (zero area or < 3 distinct vertices)",
     "drop the shape or redraw it with area and three distinct vertices"},
    {"LAY003", Severity::kWarning, "clockwise winding as stored",
     "reverse the vertex order to counter-clockwise"},
    {"LAY004", Severity::kError, "non-Manhattan edge",
     "rectilinearize the edge; this engine corrects Manhattan masks only"},
    {"LAY005", Severity::kWarning,
     "unnormalized ring (duplicate or collinear vertices)",
     "normalize the ring: drop duplicate and collinear vertices"},
    {"LAY006", Severity::kWarning, "vertex off the mask grid",
     "snap the vertex to the mask grid (ModelOpcSpec::grid_nm)"},
    // Hierarchy / library structure.
    {"HIE001", Severity::kError, "dangling cell reference",
     "add the missing cell to the library or delete the reference"},
    {"HIE002", Severity::kError, "cell-hierarchy cycle",
     "break the cycle; a cell may never reach itself through references"},
    {"HIE003", Severity::kWarning, "empty cell (no shapes, no references)",
     "delete the empty cell or add its intended content"},
    {"HIE004", Severity::kError, "degenerate array reference",
     "give the array positive rows/columns and a nonzero pitch"},
    {"HIE005", Severity::kNote,
     "layer number carries multiple datatypes (derived data present?)",
     "confirm the extra datatypes are intended derived data (e.g. OPC "
     "output); move unrelated data to its own layer"},
    // GDSII structural limits.
    {"GDS001", Severity::kError, "polygon exceeds GDSII vertex capacity",
     "split the polygon below the GDSII XY-record vertex limit"},
    {"GDS002", Severity::kError, "coordinate outside GDSII 32-bit range",
     "recenter or shrink the layout to fit signed 32-bit coordinates"},
    {"GDS003", Severity::kWarning, "cell name violates GDSII naming rules",
     "rename the cell within GDSII's allowed character set and length"},
    // Rule-deck sanity.
    {"RUL001", Severity::kError, "invalid deck value or bias range",
     "fix the deck entry so values are finite and ranges are ordered"},
    {"RUL002", Severity::kError, "overlapping bias-table ranges",
     "make the space ranges disjoint so each space matches one row"},
    {"RUL003", Severity::kWarning, "gap in bias-table space coverage",
     "extend adjacent ranges so every space value maps to a bias"},
    {"RUL004", Severity::kWarning, "non-monotonic bias table",
     "order the biases monotonically in space (denser gets more bias)"},
    {"RUL005", Severity::kError, "bias large enough to merge facing edges",
     "reduce the bias below half the smallest space its range covers"},
    {"RUL006", Severity::kWarning,
     "serif/hammerhead/mousebite exceeds half the min feature",
     "shrink the decoration below half the minimum feature size"},
    {"RUL007", Severity::kWarning,
     "interaction range below largest bias-table space",
     "raise the interaction range above the largest bias-table space"},
    // Model-parameter bands.
    {"MOD001", Severity::kError, "numerical aperture out of range",
     "set the numerical aperture inside the physical (0, 1) band"},
    {"MOD002", Severity::kError, "illumination sigma out of range",
     "keep the partial-coherence sigma within [0, 1]"},
    {"MOD003", Severity::kWarning, "non-standard exposure wavelength",
     "use a production exposure line (436/365/248/193 nm) or re-check"},
    {"MOD004", Severity::kError,
     "pixel size undersamples the aerial image (Nyquist)",
     "shrink pixel_nm below the Nyquist limit for lambda/NA"},
    {"MOD005", Severity::kWarning,
     "guard band below the optical interaction range",
     "raise guard_nm to at least the optical interaction range"},
    {"MOD006", Severity::kError, "OPC feedback gain outside stable range",
     "bring the feedback gain back inside the stable band"},
    {"MOD007", Severity::kError, "inconsistent OPC move/grid clamps",
     "order the clamps: grid <= per-iter move <= total offset <= probe "
     "range"},

    // The codes cover both files on the shared record framing: the
    // correction store (.ocs) and the pattern library (.ocl).
    {"STO001", Severity::kError,
     "store or library file written under a different process fingerprint",
     "rebuild it under the current model/deck/flow setup: rerun a store "
     "without --resume, delete a library"},
    {"STO002", Severity::kWarning,
     "store or library file tail torn mid-record; partial record dropped",
     "no action needed — the interrupted tile is re-solved and the tail "
     "is truncated on the next append"},
    {"STO003", Severity::kError,
     "store or library file header malformed or version unknown",
     "the file is not one this build can read; delete it (and rerun a "
     "store without --resume)"},
    {"STO004", Severity::kError,
     "store or library file record corrupt (checksum or structure)",
     "the file is damaged beyond a torn tail; delete it (and rerun a "
     "store without --resume)"},

    // Mask-rule signoff (scanline MRC engine, src/mrc). Each finding
    // carries the witness edges and measured distance in its message
    // and the marker rect as its location.
    {"MRC001", Severity::kError, "mask feature narrower than minimum width",
     "widen the feature or relax the correction move that pinched it"},
    {"MRC002", Severity::kError, "mask gap narrower than minimum space",
     "pull the facing edges apart or merge the shapes intentionally"},
    {"MRC003", Severity::kError, "boundary edge shorter than minimum length",
     "coarsen the fragmentation or drop the sub-resolution decoration"},
    {"MRC004", Severity::kError, "notch opening narrower than minimum",
     "fill the indentation or widen its opening beyond the rule"},
    {"MRC005", Severity::kWarning, "jog step shorter than minimum",
     "snap neighbouring fragment offsets to a coarser move grid"},
    {"MRC006", Severity::kError, "corner-to-corner gap below minimum",
     "pull the diagonally facing convex corners apart"},
    {"MRC007", Severity::kError, "connected mask area below minimum",
     "grow the island above the mask shop's minimum writable area or "
     "delete it"},
};

// Domain groups in kCodes presentation order. The prefix is the first
// three characters of the codes in the group.
constexpr struct {
  const char* prefix;
  const char* title;
} kDomains[] = {
    {"LAY", "Polygon well-formedness"},
    {"HIE", "Hierarchy / library structure"},
    {"GDS", "GDSII structural limits"},
    {"RUL", "Rule-deck sanity"},
    {"MOD", "Model-parameter bands"},
    {"STO", "Correction-store integrity"},
    {"MRC", "Mask-rule signoff"},
};

}  // namespace

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::to_line() const {
  std::ostringstream os;
  os << code << ' ' << to_string(severity);
  if (!cell.empty()) os << " cell=" << cell;
  if (has_layer) os << " layer=" << layer;
  if (!where.is_empty()) os << " at " << where;
  os << ": " << message;
  return os.str();
}

std::span<const CodeInfo> all_codes() { return kCodes; }

const char* domain_title(std::string_view code) {
  for (const auto& d : kDomains) {
    if (code.substr(0, 3) == d.prefix) return d.title;
  }
  return nullptr;
}

const CodeInfo* find_code(std::string_view code) {
  for (const CodeInfo& info : kCodes) {
    if (code == info.code) return &info;
  }
  return nullptr;
}

void LintReport::add(Diagnostic d) {
  OPCKIT_CHECK_MSG(find_code(d.code) != nullptr,
                   "unregistered diagnostic code: " << d.code);
  findings_.push_back(std::move(d));
}

void LintReport::add(std::string_view code, std::string message,
                     std::string cell, geom::Rect where) {
  const CodeInfo* info = find_code(code);
  OPCKIT_CHECK_MSG(info != nullptr,
                   "unregistered diagnostic code: " << code);
  Diagnostic d;
  d.code = std::string(code);
  d.severity = info->default_severity;
  d.message = std::move(message);
  d.cell = std::move(cell);
  d.where = where;
  findings_.push_back(std::move(d));
}

void LintReport::merge(LintReport&& other) {
  findings_.insert(findings_.end(),
                   std::make_move_iterator(other.findings_.begin()),
                   std::make_move_iterator(other.findings_.end()));
  other.findings_.clear();
}

std::size_t LintReport::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(findings_.begin(), findings_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

std::vector<std::string> LintReport::codes() const {
  std::set<std::string> uniq;
  for (const Diagnostic& d : findings_) uniq.insert(d.code);
  return {uniq.begin(), uniq.end()};
}

namespace {

util::Table report_table(const LintReport& report) {
  util::Table t({"code", "severity", "cell", "layer", "where", "message"});
  for (const Diagnostic& d : report.findings()) {
    std::ostringstream layer_os, where_os;
    if (d.has_layer) layer_os << d.layer;
    if (!d.where.is_empty()) where_os << d.where;
    t.add_row(d.code, std::string(to_string(d.severity)), d.cell,
              layer_os.str(), where_os.str(), d.message);
  }
  return t;
}

}  // namespace

std::string render_text(const LintReport& report, const std::string& title) {
  std::ostringstream os;
  os << report_table(report).to_text(title);
  os << report.findings().size() << " finding(s): " << report.errors()
     << " error(s), " << report.warnings() << " warning(s), "
     << report.count(Severity::kNote) << " note(s)\n";
  return os.str();
}

std::string render_csv(const LintReport& report) {
  return report_table(report).to_csv();
}

std::string render_codes_markdown() {
  std::ostringstream os;
  os << "# opclint diagnostic codes\n"
        "\n"
        "Generated by `opckit lint --codes --format md` from the compiled\n"
        "registry in `src/lint/diagnostic.cpp`. Do not edit by hand —\n"
        "`tools/ci.sh` regenerates this file and fails on drift.\n"
        "\n"
        "Severities: **error** findings block flows (the OPC pre-flight\n"
        "gate aborts); warnings and notes are advisory. See\n"
        "[DESIGN.md](../DESIGN.md) for the analyzer's architecture.\n";
  const char* current = nullptr;
  for (const CodeInfo& info : kCodes) {
    const char* domain = domain_title(info.code);
    if (domain != current) {
      os << "\n## " << (domain ? domain : "Other") << "\n\n";
      os << "| Code | Severity | Finding | Remedy |\n";
      os << "|------|----------|---------|--------|\n";
      current = domain;
    }
    os << "| " << info.code << " | " << to_string(info.default_severity)
       << " | " << info.title << " | " << info.remedy << " |\n";
  }
  return os.str();
}

}  // namespace opckit::lint
