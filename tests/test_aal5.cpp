// Unit tests for AAL5 overhead accounting.

#include "cts/atm/aal5.hpp"

#include <gtest/gtest.h>

namespace ca = cts::atm;

TEST(Aal5CellCount, TrailerAndPaddingAccounting) {
  // 8-byte trailer: payload 0 -> 1 cell; payload 40 -> 1 cell (40+8 = 48);
  // payload 41 -> 2 cells; payload 88 -> 2 cells; payload 89 -> 3 cells.
  EXPECT_EQ(ca::aal5_cells_for_payload(0), 1u);
  EXPECT_EQ(ca::aal5_cells_for_payload(40), 1u);
  EXPECT_EQ(ca::aal5_cells_for_payload(41), 2u);
  EXPECT_EQ(ca::aal5_cells_for_payload(88), 2u);
  EXPECT_EQ(ca::aal5_cells_for_payload(89), 3u);
}
