/// \file image.h
/// Real-valued images on a physical pixel grid.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "util/check.h"

namespace opckit::litho {

/// Physical mapping of a pixel grid: pixel (0,0)'s lower-left corner sits
/// at \p origin, pixels are square with side \p pixel_nm.
struct Frame {
  geom::Point origin{0, 0};
  double pixel_nm = 8.0;
  std::size_t nx = 0;
  std::size_t ny = 0;

  /// Physical center of pixel (ix, iy) in nm (double precision).
  double center_x(std::size_t ix) const {
    return static_cast<double>(origin.x) +
           (static_cast<double>(ix) + 0.5) * pixel_nm;
  }
  double center_y(std::size_t iy) const {
    return static_cast<double>(origin.y) +
           (static_cast<double>(iy) + 0.5) * pixel_nm;
  }
  /// Continuous pixel coordinate of physical x (nm); 0.0 at the center of
  /// pixel 0.
  double px(double x_nm) const {
    return (x_nm - static_cast<double>(origin.x)) / pixel_nm - 0.5;
  }
  double py(double y_nm) const {
    return (y_nm - static_cast<double>(origin.y)) / pixel_nm - 0.5;
  }
  /// Physical extent covered by the grid.
  geom::Rect extent() const {
    return geom::Rect(
        origin, origin + geom::Point{static_cast<geom::Coord>(
                                         pixel_nm * static_cast<double>(nx)),
                                     static_cast<geom::Coord>(
                                         pixel_nm * static_cast<double>(ny))});
  }

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// A real image over a Frame (row-major, y-major rows).
class Image {
 public:
  Image() = default;
  explicit Image(const Frame& frame, double fill = 0.0)
      : frame_(frame),
        values_(frame.nx * frame.ny, fill) {
    OPCKIT_CHECK(frame.nx > 0 && frame.ny > 0 && frame.pixel_nm > 0);
  }
  /// An image over \p frame holding \p values (nx*ny, row-major).
  Image(const Frame& frame, std::vector<double> values)
      : frame_(frame), values_(std::move(values)) {
    OPCKIT_CHECK(frame.nx > 0 && frame.ny > 0 && frame.pixel_nm > 0);
    OPCKIT_CHECK(values_.size() == frame.nx * frame.ny);
  }

  const Frame& frame() const { return frame_; }
  std::size_t nx() const { return frame_.nx; }
  std::size_t ny() const { return frame_.ny; }

  double& at(std::size_t ix, std::size_t iy) {
    return values_[iy * frame_.nx + ix];
  }
  double at(std::size_t ix, std::size_t iy) const {
    return values_[iy * frame_.nx + ix];
  }
  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

  /// Bilinear sample at a physical position (nm). Positions outside the
  /// grid clamp to the border pixels.
  double sample(double x_nm, double y_nm) const;

  /// Minimum / maximum pixel value (0 for empty images).
  double min_value() const;
  double max_value() const;

 private:
  Frame frame_;
  std::vector<double> values_;
};

}  // namespace opckit::litho
