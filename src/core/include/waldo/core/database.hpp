// Kept only for bench/serving, which includes it; the store is service::SpectrumService.
#pragma once

#include "waldo/core/channel_state.hpp"
