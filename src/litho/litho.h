/// \file litho.h
/// Umbrella header for the opckit lithography simulation engine.
#pragma once

#include "litho/band.h"       // IWYU pragma: export
#include "litho/fft.h"        // IWYU pragma: export
#include "litho/image.h"      // IWYU pragma: export
#include "litho/metrology.h"  // IWYU pragma: export
#include "litho/optics.h"     // IWYU pragma: export
#include "litho/raster.h"     // IWYU pragma: export
#include "litho/resist.h"     // IWYU pragma: export
#include "litho/simulator.h"  // IWYU pragma: export
#include "litho/socs.h"       // IWYU pragma: export
