#include <stdio.h>

int main(void) {
    int b = 8;
    b = 6;
    return b;
}
