#include <gtest/gtest.h>

#include <cstdio>

#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/serializer.h"
#include "storage/table.h"
#include "storage/tvdp_schema.h"
#include "storage/value.h"

namespace tvdp::storage {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value("x").type(), ValueType::kString);
  EXPECT_EQ(Value(std::vector<uint8_t>{1, 2}).type(), ValueType::kBlob);
  EXPECT_EQ(Value(std::vector<double>{1.0}).type(), ValueType::kFloatVector);
  EXPECT_EQ(Value(7).AsInt64(), 7);
  EXPECT_EQ(Value(7).AsDouble(), 7.0);  // int64 widens to double
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_FALSE(Value(1) == Value(2));
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_TRUE(Value(1) < Value(2));
  EXPECT_TRUE(Value() < Value(0));  // null sorts first (by type index)
}

TEST(ValueTest, ToStringAbbreviatesLargePayloads) {
  EXPECT_EQ(Value("hello").ToString(), "hello");
  EXPECT_EQ(Value(std::vector<uint8_t>(100)).ToString(), "<blob:100>");
  EXPECT_EQ(Value(std::vector<double>(3)).ToString(), "<vec:3>");
  EXPECT_EQ(Value().ToString(), "NULL");
}

// ---------- Schema ----------

TEST(SchemaTest, ImplicitIdColumn) {
  Schema s({{"name", ValueType::kString, false, std::nullopt}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.columns()[0].name, "id");
  EXPECT_EQ(s.ColumnIndex("id"), 0);
  EXPECT_EQ(s.ColumnIndex("name"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(SchemaTest, RowValidation) {
  Schema s({{"name", ValueType::kString, false, std::nullopt},
            {"score", ValueType::kDouble, true, std::nullopt}});
  EXPECT_TRUE(s.ValidateRow({Value("x"), Value(1.5)}).ok());
  EXPECT_TRUE(s.ValidateRow({Value("x"), Value()}).ok());       // nullable
  EXPECT_TRUE(s.ValidateRow({Value("x"), Value(3)}).ok());      // int->double
  EXPECT_FALSE(s.ValidateRow({Value("x")}).ok());               // arity
  EXPECT_FALSE(s.ValidateRow({Value(), Value(1.5)}).ok());      // null non-null
  EXPECT_FALSE(s.ValidateRow({Value(1), Value(1.5)}).ok());     // type
}

// ---------- Table ----------

TEST(TableTest, InsertGetDelete) {
  Table t("things", Schema({{"name", ValueType::kString, false, std::nullopt}}));
  auto id1 = t.Insert({Value("a")});
  auto id2 = t.Insert({Value("b")});
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, 1);
  EXPECT_EQ(*id2, 2);
  EXPECT_EQ(t.size(), 2u);

  auto row = t.Get(*id1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsString(), "a");

  ASSERT_TRUE(t.Delete(*id1).ok());
  EXPECT_FALSE(t.Get(*id1).ok());
  EXPECT_FALSE(t.Delete(*id1).ok());
  EXPECT_EQ(t.size(), 1u);
  // Ids are not reused.
  EXPECT_EQ(*t.Insert({Value("c")}), 3);
}

TEST(TableTest, InsertValidatesAgainstSchema) {
  Table t("things", Schema({{"n", ValueType::kInt64, false, std::nullopt}}));
  EXPECT_FALSE(t.Insert({Value("wrong type")}).ok());
  EXPECT_FALSE(t.Insert({}).ok());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, FindByAndForEach) {
  Table t("things", Schema({{"group", ValueType::kString, false, std::nullopt},
                            {"v", ValueType::kInt64, false, std::nullopt}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(i % 2 == 0 ? "even" : "odd"), Value(i)}).ok());
  }
  auto evens = t.FindBy("group", Value("even"));
  ASSERT_TRUE(evens.ok());
  EXPECT_EQ(evens->size(), 5u);
  EXPECT_FALSE(t.FindBy("nope", Value(1)).ok());

  int visited = 0;
  t.ForEach([&](const Row&) {
    ++visited;
    return visited < 4;  // early stop
  });
  EXPECT_EQ(visited, 4);
}

TEST(TableTest, RestoreRowRejectsDuplicates) {
  Table t("things", Schema({{"n", ValueType::kInt64, false, std::nullopt}}));
  ASSERT_TRUE(t.RestoreRow({Value(int64_t{7}), Value(1)}).ok());
  EXPECT_FALSE(t.RestoreRow({Value(int64_t{7}), Value(2)}).ok());
  EXPECT_FALSE(t.RestoreRow({Value("bad id")}).ok());
  // next_id advanced past the restored id.
  EXPECT_EQ(*t.Insert({Value(3)}), 8);
}

// ---------- Serializer ----------

TEST(SerializerTest, PrimitivesRoundtrip) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteI64(-99);
  w.WriteDouble(3.25);
  w.WriteString("hello");
  w.WriteBytes({1, 2, 3});
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 123456u);
  EXPECT_EQ(*r.ReadI64(), -99);
  EXPECT_EQ(*r.ReadDouble(), 3.25);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(r.ReadBytes()->size(), 3u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, ValueRoundtripAllTypes) {
  std::vector<Value> values = {
      Value(), Value(int64_t{-5}), Value(1.5), Value(true), Value("str"),
      Value(std::vector<uint8_t>{9, 8}), Value(std::vector<double>{1.0, 2.0})};
  BinaryWriter w;
  for (const Value& v : values) w.WriteValue(v);
  BinaryReader r(w.buffer());
  for (const Value& v : values) {
    auto back = r.ReadValue();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(SerializerTest, ReaderBoundsChecked) {
  std::vector<uint8_t> two_bytes{1, 2};  // named: BinaryReader keeps a ref
  BinaryReader r(two_bytes);
  EXPECT_FALSE(r.ReadU32().ok());
  BinaryWriter w;
  w.WriteString("long string");
  std::vector<uint8_t> truncated(w.buffer().begin(), w.buffer().begin() + 6);
  BinaryReader r2(truncated);
  EXPECT_FALSE(r2.ReadString().ok());
}

// ---------- Catalog ----------

TEST(CatalogTest, CreateAndLookup) {
  Catalog c;
  ASSERT_TRUE(
      c.CreateTable("a", Schema({{"x", ValueType::kInt64, false, std::nullopt}}))
          .ok());
  EXPECT_FALSE(
      c.CreateTable("a", Schema({{"x", ValueType::kInt64, false, std::nullopt}}))
          .ok());
  EXPECT_NE(c.GetTable("a"), nullptr);
  EXPECT_EQ(c.GetTable("b"), nullptr);
  EXPECT_EQ(c.TableNames(), std::vector<std::string>{"a"});
}

TEST(CatalogTest, ForeignKeyEnforcement) {
  Catalog c;
  ASSERT_TRUE(
      c.CreateTable("parents",
                    Schema({{"name", ValueType::kString, false, std::nullopt}}))
          .ok());
  ASSERT_TRUE(c.CreateTable(
                   "children",
                   Schema({{"parent_id", ValueType::kInt64, false,
                            ForeignKey{"parents"}},
                           {"name", ValueType::kString, false, std::nullopt}}))
                  .ok());
  // FK to a missing table rejected at create time.
  EXPECT_FALSE(c.CreateTable(
                    "bad", Schema({{"x", ValueType::kInt64, false,
                                    ForeignKey{"nonexistent"}}}))
                   .ok());

  auto parent = c.Insert("parents", {Value("p")});
  ASSERT_TRUE(parent.ok());
  EXPECT_TRUE(c.Insert("children", {Value(*parent), Value("c")}).ok());
  EXPECT_FALSE(c.Insert("children", {Value(int64_t{999}), Value("orphan")}).ok());
  EXPECT_FALSE(c.Insert("nonexistent", {Value(1)}).ok());
}

TEST(CatalogTest, SerializeRoundtrip) {
  Catalog c;
  ASSERT_TRUE(
      c.CreateTable("t", Schema({{"s", ValueType::kString, false, std::nullopt},
                                 {"v", ValueType::kFloatVector, true,
                                  std::nullopt}}))
          .ok());
  ASSERT_TRUE(c.Insert("t", {Value("row1"), Value(std::vector<double>{1, 2})})
                  .ok());
  ASSERT_TRUE(c.Insert("t", {Value("row2"), Value()}).ok());
  // Delete row1: the tombstone must not resurrect after a roundtrip.
  ASSERT_TRUE(c.GetTable("t")->Delete(1).ok());

  auto restored = Catalog::Deserialize(c.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  Table* t = restored->GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->size(), 1u);
  EXPECT_FALSE(t->Get(1).ok());
  EXPECT_EQ((*t->Get(2))->at(1).AsString(), "row2");
  // next_id preserved: new rows continue after the old sequence.
  EXPECT_EQ(*t->Insert({Value("row3"), Value()}), 3);
}

TEST(CatalogTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Catalog::Deserialize({}).ok());
  EXPECT_FALSE(Catalog::Deserialize({1, 2, 3, 4, 5, 6, 7, 8}).ok());
}

TEST(CatalogTest, FileRoundtrip) {
  std::string path = ::testing::TempDir() + "/tvdp_catalog_test.bin";
  Catalog c;
  ASSERT_TRUE(
      c.CreateTable("t", Schema({{"x", ValueType::kInt64, false, std::nullopt}}))
          .ok());
  ASSERT_TRUE(c.Insert("t", {Value(42)}).ok());
  ASSERT_TRUE(c.SaveToFile(path).ok());
  auto loaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded->GetTable("t")->Get(1))->at(1).AsInt64(), 42);
  std::remove(path.c_str());
  EXPECT_FALSE(Catalog::LoadFromFile(path).ok());
}

// ---------- TVDP schema ----------

TEST(TvdpSchemaTest, AllTablesCreated) {
  auto catalog = MakeTvdpCatalog();
  ASSERT_TRUE(catalog.ok());
  for (const char* name :
       {tables::kImages, tables::kImageFov, tables::kImageSceneLocation,
        tables::kImageVisualFeatures, tables::kImageContentClassification,
        tables::kImageContentClassificationTypes,
        tables::kImageContentAnnotation, tables::kImageManualKeywords}) {
    EXPECT_NE(catalog->GetTable(name), nullptr) << name;
  }
  EXPECT_EQ(catalog->TableNames().size(), 8u);
}

TEST(TvdpSchemaTest, AnnotationRequiresExistingImageAndType) {
  auto catalog = MakeTvdpCatalog();
  ASSERT_TRUE(catalog.ok());
  // No image yet: annotation insert must fail the FK check.
  Row ann{Value(int64_t{1}), Value(int64_t{1}), Value(0.9), Value("machine"),
          Value(),           Value(),           Value(),    Value()};
  EXPECT_FALSE(catalog->Insert(tables::kImageContentAnnotation, ann).ok());

  auto image_id = catalog->Insert(
      tables::kImages,
      Row{Value("uri"), Value(34.0), Value(-118.0), Value(int64_t{100}),
          Value(int64_t{200}), Value("test"), Value(false), Value()});
  ASSERT_TRUE(image_id.ok());
  auto cls_id = catalog->Insert(tables::kImageContentClassification,
                                Row{Value("cleanliness"), Value()});
  ASSERT_TRUE(cls_id.ok());
  auto type_id =
      catalog->Insert(tables::kImageContentClassificationTypes,
                      Row{Value(*cls_id), Value("encampment")});
  ASSERT_TRUE(type_id.ok());
  Row good{Value(*image_id), Value(*type_id), Value(0.9), Value("machine"),
           Value(),          Value(),         Value(),    Value()};
  EXPECT_TRUE(catalog->Insert(tables::kImageContentAnnotation, good).ok());
}

TEST(TvdpSchemaTest, AugmentedImageSelfReference) {
  auto catalog = MakeTvdpCatalog();
  ASSERT_TRUE(catalog.ok());
  auto original = catalog->Insert(
      tables::kImages,
      Row{Value("orig"), Value(34.0), Value(-118.0), Value(int64_t{1}),
          Value(int64_t{2}), Value("test"), Value(false), Value()});
  ASSERT_TRUE(original.ok());
  // Augmented image referencing the original: OK.
  EXPECT_TRUE(catalog
                  ->Insert(tables::kImages,
                           Row{Value("aug"), Value(34.0), Value(-118.0),
                               Value(int64_t{1}), Value(int64_t{2}),
                               Value("augmentor"), Value(true),
                               Value(*original)})
                  .ok());
  // Referencing a missing original: FK violation.
  EXPECT_FALSE(catalog
                   ->Insert(tables::kImages,
                            Row{Value("bad"), Value(34.0), Value(-118.0),
                                Value(int64_t{1}), Value(int64_t{2}),
                                Value("augmentor"), Value(true),
                                Value(int64_t{777})})
                   .ok());
}

TEST(TvdpSchemaTest, FullCatalogSerializeRoundtrip) {
  auto catalog = MakeTvdpCatalog();
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE(catalog
                  ->Insert(tables::kImages,
                           Row{Value("u"), Value(34.0), Value(-118.0),
                               Value(int64_t{5}), Value(int64_t{6}),
                               Value("s"), Value(false), Value()})
                  .ok());
  auto restored = Catalog::Deserialize(catalog->Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->GetTable(tables::kImages)->size(), 1u);
  EXPECT_EQ(restored->TableNames().size(), 8u);
}

}  // namespace
}  // namespace tvdp::storage
