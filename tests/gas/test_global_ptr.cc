/**
 * @file
 * Unit tests for global pointers and the gas method enum: validity,
 * word arithmetic, names, and lowering onto the engine methods.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gas/global_ptr.hh"
#include "remote/remote_ops.hh"

namespace {

using namespace gasnub;
using gas::GlobalPtr;
using gas::Method;
using remote::TransferMethod;

TEST(GlobalPtr, DefaultIsInvalid)
{
    constexpr GlobalPtr p;
    static_assert(!p.valid());
    EXPECT_FALSE(p.valid());
    EXPECT_TRUE((GlobalPtr{0, 0}).valid());
    EXPECT_TRUE((GlobalPtr{3, 64}).valid());
}

TEST(GlobalPtr, ArithmeticAdvancesByWordsOnTheSameNode)
{
    constexpr GlobalPtr p{2, 0x1000};
    static_assert((p + 3).addr == 0x1000 + 3 * wordBytes);
    EXPECT_EQ((p + 0), p);
    EXPECT_EQ((p + 5).node, 2);
    EXPECT_EQ((p + 5).addr, 0x1000u + 40u);
    EXPECT_EQ((p + 2) + 3, p + 5);
    EXPECT_NE(p + 1, (GlobalPtr{3, 0x1000 + wordBytes}));
}

TEST(GasMethod, NamesAreDistinctAndMatchTheEngineNames)
{
    const std::set<std::string> names = {
        gas::methodName(Method::Deposit), gas::methodName(Method::Fetch),
        gas::methodName(Method::CoherentPull),
        gas::methodName(Method::Auto)};
    EXPECT_EQ(names.size(), 4u);
    EXPECT_STREQ(gas::methodName(Method::Auto), "auto");
    for (Method m : {Method::Deposit, Method::Fetch,
                     Method::CoherentPull})
        EXPECT_STREQ(gas::methodName(m),
                     remote::methodName(gas::lowerMethod(m)));
}

TEST(GasMethod, LowerAndLiftRoundTrip)
{
    for (TransferMethod t : {TransferMethod::Deposit,
                             TransferMethod::Fetch,
                             TransferMethod::CoherentPull}) {
        EXPECT_EQ(gas::lowerMethod(gas::liftMethod(t)), t);
        EXPECT_NE(gas::liftMethod(t), Method::Auto);
    }
    EXPECT_EQ(gas::lowerMethod(Method::Deposit), TransferMethod::Deposit);
    EXPECT_EQ(gas::lowerMethod(Method::Fetch), TransferMethod::Fetch);
    EXPECT_EQ(gas::lowerMethod(Method::CoherentPull),
              TransferMethod::CoherentPull);
}

TEST(GasMethodDeath, AutoCannotBeLoweredDirectly)
{
    EXPECT_DEATH(gas::lowerMethod(Method::Auto),
                 "Method::Auto cannot be lowered directly");
}

} // namespace
