# Build file of the perfbench probe.  run.py configures the repository
# with -DCMAKE_PROJECT_INCLUDE=<this file>, which CMake includes right
# after the repository's project() call, so the probe links the
# repository's own library targets without any change to its build
# files.  Target names resolve when the build is generated.
add_executable(perfprobe ${CMAKE_CURRENT_LIST_DIR}/probe.cc)
target_compile_features(perfprobe PRIVATE cxx_std_20)
target_compile_options(perfprobe PRIVATE -Wall -Wextra)
target_include_directories(perfprobe PRIVATE
                           ${CMAKE_CURRENT_LIST_DIR}/../tools)
target_link_libraries(perfprobe PRIVATE gasnub_serve gasnub_core
                      gasnub_machine)
