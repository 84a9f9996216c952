#include "catalog.h"

namespace smpxbench {

const char* const kMedlinePaths =
    "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
    "/MedlineCitationSet/MedlineCitation/DateCompleted#";

const char* const kXmarkPaths =
    "/site/people/person@ /site/people/person/name# "
    "/site/open_auctions/open_auction/initial#";

const std::vector<CatalogQuery>& Catalog() {
  static const std::vector<CatalogQuery>* c = new std::vector<CatalogQuery>{
      {"XM1", false, "/site/people/person@ /site/people/person/name#"},
      {"XM2", false, "/site/open_auctions/open_auction/bidder/increase#"},
      {"XM3", false, "/site/open_auctions/open_auction/bidder/increase#"},
      {"XM4", false,
       "/site/open_auctions/open_auction/bidder/personref@ "
       "/site/open_auctions/open_auction/reserve#"},
      {"XM5", false, "/site/closed_auctions/closed_auction/price#"},
      {"XM6", false, "/site/regions//item@"},
      {"XM7", false, "//description //annotation //emailaddress"},
      {"XM8", false,
       "/site/people/person@ /site/people/person/name# "
       "/site/closed_auctions/closed_auction/buyer@"},
      {"XM9", false,
       "/site/people/person@ /site/people/person/name# "
       "/site/closed_auctions/closed_auction/buyer@ "
       "/site/closed_auctions/closed_auction/itemref@ "
       "/site/regions/europe/item@ /site/regions/europe/item/name#"},
      {"XM10", false,
       "/site/categories/category@ /site/categories/category/name# "
       "/site/people/person@ /site/people/person/name# "
       "/site/people/person/emailaddress# /site/people/person/homepage# "
       "/site/people/person/creditcard# /site/people/person/address# "
       "/site/people/person/profile#"},
      {"XM11", false,
       "/site/people/person/name# /site/people/person/profile@ "
       "/site/open_auctions/open_auction/initial#"},
      {"XM12", false,
       "/site/people/person/profile@ "
       "/site/open_auctions/open_auction/initial#"},
      {"XM13", false,
       "/site/regions/australia/item/name# "
       "/site/regions/australia/item/description#"},
      {"XM14", false, "/site//item/name# /site//item/description#"},
      {"XM17", false,
       "/site/people/person/name# /site/people/person/homepage"},
      {"XM18", false, "/site/open_auctions/open_auction/initial#"},
      {"XM19", false,
       "/site/regions//item/location# /site/regions//item/name#"},
      {"XM20", false, "/site/people/person/profile@"},
      {"M1", true, "/MedlineCitationSet//CollectionTitle#"},
      {"M2", true,
       "/MedlineCitationSet//DataBank/DataBankName# "
       "/MedlineCitationSet//DataBank/AccessionNumberList#"},
      {"M3", true,
       "/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject#"},
      {"M4", true, "/MedlineCitationSet//CopyrightInformation#"},
      {"M5", true, kMedlinePaths},
  };
  return *c;
}

std::vector<std::string> MultiTenantMix() {
  std::vector<std::string> mix;
  for (const char* region :
       {"africa", "asia", "australia", "europe", "namerica", "samerica"}) {
    for (const char* field :
         {"name", "location", "quantity", "payment", "shipping"}) {
      mix.push_back(std::string("/site/regions/") + region + "/item/" +
                    field + "#");
    }
  }
  for (const char* field : {"phone", "emailaddress", "homepage", "creditcard"}) {
    mix.push_back(std::string("/site/people/person/") + field + "#");
  }
  for (const char* field : {"city", "country", "street", "zipcode"}) {
    mix.push_back(std::string("/site/people/person/address/") + field + "#");
  }
  mix.push_back("/site/categories/category/name#");
  return mix;
}

}  // namespace smpxbench
