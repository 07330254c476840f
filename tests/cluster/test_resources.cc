#include "cluster/resources.h"

#include <gtest/gtest.h>

namespace wsva::cluster {
namespace {

TEST(ResourceVector, GetAbsentIsZero)
{
    ResourceVector rv;
    EXPECT_EQ(rv.get("anything"), 0.0);
    EXPECT_TRUE(rv.empty());
}

TEST(ResourceVector, CanonicalDimensionIdsMatchTheirNames)
{
    // stepResourceNeed sets dimensions by these constants; each must
    // be the id its name interns to.
    EXPECT_EQ(resourceDimId(kResDecodeMillicores), kDimDecodeMillicores);
    EXPECT_EQ(resourceDimId(kResEncodeMillicores), kDimEncodeMillicores);
    EXPECT_EQ(resourceDimId(kResDramBytes), kDimDramBytes);
    EXPECT_EQ(resourceDimId(kResHostCpuMillicores),
              kDimHostCpuMillicores);
    EXPECT_EQ(resourceDimId(kResSwDecodeMillicores),
              kDimSwDecodeMillicores);
}

TEST(ResourceVector, SetAndGet)
{
    ResourceVector rv;
    rv.set(kResEncodeMillicores, 3750);
    EXPECT_EQ(rv.get(kResEncodeMillicores), 3750);
}

TEST(ResourceVector, SetZeroErases)
{
    ResourceVector rv;
    rv.set("dim", 5);
    rv.set("dim", 0);
    EXPECT_TRUE(rv.empty());
}

TEST(ResourceVector, AddAndSubtract)
{
    ResourceVector a{{kResDecodeMillicores, 500.0},
                     {kResEncodeMillicores, 3750.0}};
    ResourceVector b{{kResDecodeMillicores, 100.0}};
    a.add(b);
    EXPECT_EQ(a.get(kResDecodeMillicores), 600);
    a.subtract(b);
    EXPECT_EQ(a.get(kResDecodeMillicores), 500);
    EXPECT_EQ(a.get(kResEncodeMillicores), 3750);
}

TEST(ResourceVector, FitsPaperExample)
{
    // Figure 6: Worker 0 {D 0, E 7000} cannot take {D 500, E 3750};
    // Worker 1 {D 1000, E 7000} can.
    ResourceVector need{{kResDecodeMillicores, 500.0},
                        {kResEncodeMillicores, 3750.0}};
    ResourceVector worker0{{kResDecodeMillicores, 0.0},
                           {kResEncodeMillicores, 7000.0}};
    ResourceVector worker1{{kResDecodeMillicores, 1000.0},
                           {kResEncodeMillicores, 7000.0}};
    EXPECT_FALSE(worker0.fits(need));
    EXPECT_TRUE(worker1.fits(need));
}

TEST(ResourceVector, FitsTreatsMissingDimensionsAsZero)
{
    ResourceVector need{{"exotic", 1.0}};
    ResourceVector avail{{kResEncodeMillicores, 10000.0}};
    EXPECT_FALSE(avail.fits(need));
}

TEST(ResourceVector, FitsExactBoundary)
{
    ResourceVector need{{kResEncodeMillicores, 10000.0}};
    ResourceVector avail{{kResEncodeMillicores, 10000.0}};
    EXPECT_TRUE(avail.fits(need));
}

TEST(ResourceVector, NonNegativeDetection)
{
    ResourceVector rv{{kResEncodeMillicores, 100.0}};
    EXPECT_TRUE(rv.nonNegative());
    ResourceVector neg;
    neg.set("x", -1);
    EXPECT_FALSE(neg.nonNegative());
}

TEST(ResourceVector, MaxUtilization)
{
    ResourceVector cap{{kResDecodeMillicores, 3000.0},
                       {kResEncodeMillicores, 10000.0}};
    ResourceVector used{{kResDecodeMillicores, 1500.0},
                        {kResEncodeMillicores, 2000.0}};
    EXPECT_DOUBLE_EQ(used.maxUtilizationVs(cap), 0.5);
}

} // namespace
} // namespace wsva::cluster
